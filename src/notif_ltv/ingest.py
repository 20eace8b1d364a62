"""Event-log ingestion and the send-log format.

Reads a JSON Lines send log into one `SendLog`: equal-length numpy columns
(user, type, timestamp, raw score, outcome) with rows grouped by user in
sorted user-id order and kept in timestamp order within each user. This
module owns the format both ways: `_parse_line` reads one line and
`SendLog.to_jsonl` writes a log back, which is how the simulator's sends
are emitted.

`build_dataset` splits each user's rows into halves, estimates a per-user
baseline open rate on the first half, and replays the second half into a
`RecordSet` of (type, streak, outcome, baseline) records for the behavior
estimator. Users with too few first-half sends are excluded so that new or
unreachable users cannot contaminate the baselines.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_STREAK_BOUNDS, USER_TYPES, advance_streak, validate_streak_bounds

DEFAULT_MIN_SAMPLES = 10


class LogParseError(ValueError):
    """Raised when a log line is malformed; the message names the line."""


@dataclass(frozen=True)
class SendLog:
    """Every logged send as columns, one row per send.

    user holds each row's position in users, the distinct user ids in
    sorted() order. Rows are grouped by user in that order and sorted by
    timestamp within a user, equal timestamps keeping their input order.
    """

    users: tuple[str, ...]
    user: np.ndarray
    user_type: np.ndarray
    timestamp: np.ndarray
    raw_score: np.ndarray
    outcome: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def from_rows(cls, user_id, user_type, timestamp, raw_score, outcome) -> "SendLog":
        """Group equal-length columns given in input order into a SendLog.

        The columns must already satisfy `read_log`'s checks: int64
        timestamps, scores in [0, 1], outcomes 0 or 1, one type per user.
        """
        # ids stay Python strings: a numpy 'U' array drops trailing NULs
        users = tuple(sorted(set(user_id)))
        rank = {uid: r for r, uid in enumerate(users)}
        user = np.array([rank[uid] for uid in user_id], dtype=np.int64)
        timestamp = np.asarray(timestamp, dtype=np.int64)
        order = np.lexsort((timestamp, user))  # stable: equal keys keep input order
        return cls(users=users, user=user[order],
                   user_type=np.asarray(user_type, dtype=np.int64)[order],
                   timestamp=timestamp[order],
                   raw_score=np.asarray(raw_score, dtype=float)[order],
                   outcome=np.asarray(outcome, dtype=np.int64)[order])

    def to_jsonl(self) -> str:
        """The log in `read_log`'s format, one JSON object per row in row
        order, keys sorted."""
        lines = [json.dumps({"user_id": self.users[u], "user_type": c, "timestamp": t,
                             "raw_score": r, "outcome": o}, sort_keys=True)
                 for u, c, t, r, o in zip(self.user.tolist(), self.user_type.tolist(),
                                          self.timestamp.tolist(), self.raw_score.tolist(),
                                          self.outcome.tolist())]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class RecordSet:
    """Sent notifications as columns, each with the streak the user was in
    when it went out and the user's baseline open rate.

    user holds positions in the source log's users; raw_score is carried
    through so downstream summaries can calibrate it.
    """

    user: np.ndarray
    user_type: np.ndarray
    streak: np.ndarray
    outcome: np.ndarray
    baseline_rate: np.ndarray
    raw_score: np.ndarray

    def __len__(self) -> int:
        return len(self.user)


def _parse_line(line: str, lineno: int) -> tuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise LogParseError(f"line {lineno}: expected a JSON object")
    try:
        user_id = obj["user_id"]
        user_type = obj["user_type"]
        timestamp = obj["timestamp"]
        raw_score = obj["raw_score"]
        outcome = obj["outcome"]
    except KeyError as exc:
        raise LogParseError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
    # json gives exact builtin types: type() is isinstance without bool
    if type(user_id) is not str or not user_id:
        raise LogParseError(f"line {lineno}: user_id must be a non-empty string")
    if type(user_type) is not int or user_type not in USER_TYPES:
        raise LogParseError(
            f"line {lineno}: unknown user_type {user_type!r}; expected one of {list(USER_TYPES)}")
    if type(timestamp) is not int:
        raise LogParseError(f"line {lineno}: timestamp must be an integer")
    if not -2 ** 63 <= timestamp < 2 ** 63:
        raise LogParseError(f"line {lineno}: timestamp {timestamp} does not fit in 64 bits")
    if type(raw_score) is not float and type(raw_score) is not int \
            or not 0.0 <= raw_score <= 1.0:
        raise LogParseError(f"line {lineno}: raw_score must be a number in [0, 1]")
    if type(outcome) is bool or outcome not in (0, 1):
        raise LogParseError(f"line {lineno}: outcome must be 0 or 1, got {outcome!r}")
    return user_id, user_type, timestamp, raw_score, outcome


def read_log(path) -> SendLog:
    """Parse a JSON Lines send log into one SendLog.

    Blank lines are ignored. A user appearing under two different types is
    an error.
    """
    type_of: dict[str, int] = {}
    # packed numeric columns: 8 bytes a value instead of a Python object
    user_id, user_type, timestamp = [], array("q"), array("q")
    raw_score, outcome = array("d"), array("d")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            uid, c, ts, score, o = _parse_line(line, lineno)
            known = type_of.setdefault(uid, c)
            if known != c:
                raise LogParseError(f"line {lineno}: user {uid!r} changes type "
                                    f"from {known} to {c}")
            user_id.append(uid)
            user_type.append(c)
            timestamp.append(ts)
            raw_score.append(score)
            outcome.append(o)
    return SendLog.from_rows(user_id, user_type, timestamp, raw_score, outcome)


def build_dataset(log: SendLog, min_samples: int = DEFAULT_MIN_SAMPLES,
                  bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS) -> RecordSet:
    """Split, estimate baselines and replay streaks for every user at once.

    Each user's rows are cut at n // 2. A user with fewer than min_samples
    first-half rows is excluded; otherwise the first half's open rate is the
    user's baseline and every second-half row becomes a record carrying the
    streak in force when it was sent. The streak starts at 0 at the top of
    the second half (first-half history is the baseline window and is
    deliberately not carried over) and then replays the observed outcomes.
    Records keep the log's row order.
    """
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    bounds = validate_streak_bounds(bounds)
    size = np.bincount(log.user, minlength=len(log.users))
    start = np.cumsum(size) - size
    first = size // 2
    cut = start + first
    kept = first >= min_samples
    rows = np.flatnonzero(kept[log.user] & (np.arange(len(log)) >= cut[log.user]))
    user = log.user[rows]
    opens = np.r_[0, np.cumsum(log.outcome)]
    baseline = (opens[cut] - opens[start])[user] / first[user]

    # replay step k advances, at once, every user whose second half has a
    # k-th send; users are independent, so this is each user's own replay
    position = rows - cut[user]
    streak = np.empty(len(rows), dtype=np.int64)
    current = np.zeros(len(log.users), dtype=np.int64)
    for step in np.split(np.argsort(position), np.cumsum(np.bincount(position))[:-1]):
        u = user[step]
        streak[step] = current[u]
        current[u] = advance_streak(current[u], log.outcome[rows[step]], bounds)
    return RecordSet(user=user, user_type=log.user_type[rows], streak=streak,
                     outcome=log.outcome[rows], baseline_rate=baseline,
                     raw_score=log.raw_score[rows])
