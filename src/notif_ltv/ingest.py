"""Event-log ingestion and the send-log format.

Reads a JSON Lines send log into one `SendLog`: equal-length numpy columns
(user, type, timestamp, raw score, outcome) with rows grouped by user in
sorted user-id order and kept in timestamp order within each user. This
module owns the format both ways: `read_log` reads it and `SendLog.to_jsonl`
writes a log back, which is how the simulator's sends are emitted.

`read_log` walks the file once, 4096 lines at a time. It decodes a chunk
with one `json.loads` as a JSON array when three whole-chunk counts prove
each line one array element, and checks the fields a column at a time. A
chunk that is not one object per line, or fails a check, goes through the
per-line loop of `_parse_line`, which defines the accepted set and names
the chunk's first bad line; the read then goes on with the next chunk.

`build_dataset` splits each user's rows into halves, estimates a per-user
baseline open rate on the first half, and turns the second half into a
`RecordSet` of (type, streak, outcome, baseline) records for the behavior
estimator, each streak found in closed form from the runs of equal
outcomes before it. Users with too few first-half sends are excluded so
that new or unreachable users cannot contaminate the baselines.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .core import DEFAULT_STREAK_BOUNDS, USER_TYPES, validate_streak_bounds

DEFAULT_MIN_SAMPLES = 10
# lines per json.loads call in read_log: the decoder shares key strings
# within one call, and one array of a whole 167k-line log is slower than
# chunks of this size and holds more than twice the memory
_CHUNK_LINES = 4096
_FIELDS = ("user_id", "user_type", "timestamp", "raw_score", "outcome")
_TYPE_SET = frozenset(USER_TYPES)
# the file is decoded with errors="surrogateescape", which turns each byte
# that is not UTF-8 into one of these lone surrogates (strict UTF-8 decoding
# gives none), so a search finds the bad byte without failing the read
_RAW_BYTE = re.compile("[\udc80-\udcff]")


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
        user = np.fromiter(map(rank.__getitem__, user_id), np.int64, len(user_id))
        timestamp = np.asarray(timestamp, dtype=np.int64)
        # lexsort((timestamp, user)) in two stable passes; a narrow user key sorts by radix
        order = np.argsort(timestamp, kind="stable")
        order = order[np.argsort(user.astype(np.min_scalar_type(len(users)))[order], kind="stable")]
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

    bounds are the streak bounds the streaks were clamped to, and so the
    bounds of a factor table estimated from these records; user holds
    positions in the source log's users; raw_score is carried through so
    downstream summaries can calibrate it.
    """

    bounds: tuple[int, int]
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
    except (ValueError, RecursionError) as exc:  # bad JSON, an int too long, nesting too deep
        raise LogParseError(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
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

    Lines end at LF, CRLF or a lone CR. Blank lines are ignored. A user
    appearing under two different types is an error, and so is a byte that
    is not UTF-8; every error names its line, and the earliest line's wins.

    The file is read once, _CHUNK_LINES lines at a time. A chunk that
    `_read_chunk` declines, such as one with a `{` inside a user_id, goes
    through `_read_lines` from its own first line number. Both fill type_of
    as a chunk completes, so a type change is an error on its own line.
    """
    type_of: dict[str, int] = {}
    # one str per distinct id: the decoder makes a new one per row, and a
    # chunk's rows kept among its freed objects would hold the heap open
    same_id: dict[str, str] = {}
    # packed numeric columns: 8 bytes a value instead of a Python object
    user_id, user_type, timestamp = [], array("q"), array("q")
    raw_score, outcome = array("d"), array("d")
    lineno = 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := list(islice(fh, _CHUNK_LINES)):
            ids, types, stamps, scores, opens = (_read_chunk(chunk, type_of)
                                                 or _read_lines(chunk, lineno, type_of))
            lineno += len(chunk)
            user_id += map(same_id.setdefault, ids, ids)
            user_type += types
            timestamp += stamps
            raw_score += scores
            outcome += opens
    return SendLog.from_rows(user_id, user_type, timestamp, raw_score, outcome)


def _read_chunk(chunk: list[str], type_of: dict[str, int]) -> tuple | None:
    r"""A chunk's columns from one `json.loads` of its lines as an array, or
    None where `_read_lines` must decide.

    The lines, stripped of JSON whitespace, are joined with "\n," into one
    array text. A stripped line holds no newline, so for n lines, n - 1
    `}\n,{` in a text from `[{` to `}]` mean each line starts with `{` and
    ends with `}`; n of each brace then mean one of each a line. With n
    objects in the array, no brace is inside a string, so object k is line
    k alone and equals `json.loads` of it. The fields are checked a column
    at a time with `_parse_line`'s rules; `type_of` is filled only once
    every other check has passed, and `setdefault` leaves it as a per-line
    pass would, so a declined chunk can be read again line by line.
    """
    lines = list(filter(None, map(str.strip, chunk, repeat(" \t\r\n"))))
    n, text = len(lines), "[" + "\n,".join(lines) + "]"
    del lines  # a second copy of the chunk's text through the decode raises peak RSS
    if not (text.startswith("[{") and text.endswith("}]")) \
            or text.count("}\n,{") != n - 1 or text.count("{") != n or text.count("}") != n:
        return None
    if not text.isascii() and _RAW_BYTE.search(text):
        return None
    try:
        objs = json.loads(text)
    except (ValueError, RecursionError):  # bad JSON, an int too long, nesting too deep
        return None
    if len(objs) != n or set(map(type, objs)) != {dict}:
        return None
    try:
        ids, types, stamps, scores, opens = (list(map(itemgetter(k), objs)) for k in _FIELDS)
    except KeyError:
        return None
    if set(map(type, ids)) != {str} or not all(ids) \
            or set(map(type, types)) != {int} or not set(types) <= _TYPE_SET \
            or set(map(type, stamps)) != {int} \
            or not set(map(type, scores)) <= {float, int} \
            or not set(map(type, opens)) <= {float, int} or not set(opens) <= {0, 1}:
        return None
    try:  # int64 and float range
        stamps, scores = array("q", stamps), array("d", scores)
    except OverflowError:
        return None
    score = np.frombuffer(scores, dtype=float)
    if not ((score >= 0.0) & (score <= 1.0)).all():  # NaN fails both
        return None
    if list(map(type_of.setdefault, ids, types)) != types:
        return None
    return ids, array("q", types), stamps, scores, array("d", opens)


def _read_lines(chunk: list[str], lineno: int, type_of: dict[str, int]) -> tuple:
    """A chunk's columns parsed one line at a time, its first line being
    line lineno; raises the chunk's first error."""
    rows = []
    for lineno, line in enumerate(chunk, start=lineno):
        if not line.strip():
            continue
        bad = _RAW_BYTE.search(line)
        if bad:
            raise LogParseError(f"line {lineno}: byte {ord(bad.group()) - 0xdc00:#04x} "
                                f"is not valid UTF-8")
        uid, c, ts, score, o = _parse_line(line, lineno)
        known = type_of.setdefault(uid, c)
        if known != c:
            raise LogParseError(f"line {lineno}: user {uid!r} changes type "
                                f"from {known} to {c}")
        rows.append((uid, c, ts, score, o))
    ids, types, stamps, scores, opens = zip(*rows) if rows else ((),) * 5
    return ids, array("q", types), array("q", stamps), array("d", scores), array("d", opens)


def build_dataset(log: SendLog, min_samples: int = DEFAULT_MIN_SAMPLES,
                  bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS) -> RecordSet:
    """Split, estimate baselines and find streaks for every user at once.

    Each user's rows are cut at n // 2. A user with fewer than min_samples
    first-half rows is excluded; otherwise the first half's open rate is the
    user's baseline and every second-half row becomes a record carrying the
    streak in force when it was sent: 0 at the top of the second half
    (first-half history is the baseline window and is deliberately not
    carried over), then what replaying the observed outcomes with
    `advance_streak` gives, clamped to bounds. Records keep the log's row
    order and carry the bounds.
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

    # that replay in closed form: the signed length, clamped, of the run of
    # equal outcomes just before a send, where runs also break at the top
    # of a user's second half
    outcome = log.outcome[rows]
    top = rows == cut[user]
    i = np.arange(len(rows))
    run = np.maximum.accumulate(np.where(top | (outcome != np.roll(outcome, 1)), i, 0))
    after = np.clip(np.where(outcome, i + 1 - run, run - i - 1), *bounds)
    streak = np.where(top, 0, np.roll(after, 1))
    return RecordSet(bounds=bounds, user=user, user_type=log.user_type[rows], streak=streak,
                     outcome=outcome, baseline_rate=baseline,
                     raw_score=log.raw_score[rows])
