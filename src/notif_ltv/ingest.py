"""Event-log ingestion and the send-log format.

Reads a JSON Lines send log into one `SendLog`: equal-length numpy columns
(user, type, timestamp, raw score, outcome) with rows grouped by user in
sorted user-id order and kept in timestamp order within each user. This
module owns the format both ways: `read_log` reads it and `SendLog.to_jsonl`
writes a log back, which is how the simulator's sends are emitted.

`read_log` reads the file once in binary, 512 KiB at a time, each read
cut after its last LF or CR into a block of whole lines, and gives each
user id an integer code, in first-seen order, as its row is read. It
decodes a block with one `json.loads` as a JSON array when numpy proves
over the block's bytes that each non-blank line is one `{...}` holding no
other brace, padded only by JSON whitespace, whatever ends the lines. The
fields are checked a column at a time, and each row's user type against
one type per code. A block that fails the proof, or a check, goes through
the per-line loop of `_parse_line`, which defines the accepted set and
names the block's first bad line; the read then goes on with the next block.
Every `SendLog` is grouped from codes by `SendLog.from_codes`.

`build_dataset` splits each user's rows into halves, estimates a per-user
baseline open rate on the first half, and turns the second half into a
`RecordSet` of (type, streak, outcome, baseline) records for the behavior
estimator, each streak found in closed form from the runs of equal
outcomes before it. Users with too few first-half sends are excluded so
that new or unreachable users cannot contaminate the baselines.
"""

from __future__ import annotations

import io
import json
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import DEFAULT_STREAK_BOUNDS, USER_TYPES, validate_streak_bounds

DEFAULT_MIN_SAMPLES = 10
# bytes per read in read_log, each cut after its last line end into the
# block of one json.loads call: the decoder shares key strings within one
# call, and one array of a whole 16 MB log is slower than blocks of this
# size and holds the memory of every decoded row at once
_BLOCK_BYTES = 512 * 1024
_FIELDS = ("user_id", "user_type", "timestamp", "raw_score", "outcome")
_TYPE_SET = frozenset(USER_TYPES)
# the file is decoded with errors="surrogateescape", which turns each byte
# that is not UTF-8 into one of these lone surrogates (strict UTF-8 decoding
# gives none), so a search finds the bad byte without failing the read
_RAW_BYTE = re.compile("[\udc80-\udcff]")
_LF, _CR, _OPEN, _CLOSE, _COMMA = b"\n\r{},"
_WHITESPACE = np.frombuffer(b" \t\n\r", np.uint8)  # JSON's (RFC 8259, section 2)
_STRUCTURE = np.isin(np.arange(256), np.frombuffer(b"\n\r{}", np.uint8))  # by byte value


class _Codes(dict):
    """Each user id's integer code, a new id taking the next one, so codes
    number ids in first-seen order. `map(codes.__getitem__, ids)` codes a
    column in one C-level pass that calls Python only for a new id."""

    def __missing__(self, uid: str) -> int:
        code = self[uid] = len(self)
        return code


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
    def from_codes(cls, ids, user, user_type, timestamp, raw_score, outcome) -> "SendLog":
        """Group equal-length columns given in input order into a SendLog,
        row i being a send to user ids[user[i]].

        ids holds distinct id strings indexed by code; users are those that
        some row's code names, in sorted() order, so a caller may pass
        codes it already has, such as user indices. The columns must
        already satisfy `read_log`'s checks: int64 timestamps, scores in
        [0, 1], outcomes 0 or 1, one type per user.
        """
        user = np.asarray(user, dtype=np.int64)
        present = np.flatnonzero(np.bincount(user, minlength=len(ids))).tolist()
        # ids stay Python strings: a numpy 'U' array drops trailing NULs
        present.sort(key=ids.__getitem__)
        users = tuple(map(ids.__getitem__, present))
        rank = np.empty(len(ids), dtype=np.int64)
        rank[present] = np.arange(len(present))
        user = rank[user]
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

    The file is read once in binary, _BLOCK_BYTES at a time, and `_blocks`
    cuts each read after its last LF or CR, never inside a CRLF, carrying
    the rest into the next, so that no line straddles two blocks and a
    block's memory is bounded whatever ends its lines. `_read_block` sends
    a block that the byte proof of `_array_text` fails, such as one with a
    `{` inside a user_id, or that fails a check, through `_read_lines` from
    its own first line number, and counts the block's line ends. Both paths
    give each new user id the next integer code and record its type as the
    block completes, so a type change is an error on its own line.
    """
    codes = _Codes()
    type_of = array("q")  # each code's user type
    # packed numeric columns: 8 bytes a value instead of a Python object
    user, user_type, timestamp = array("q"), array("q"), array("q")
    raw_score, outcome = array("d"), array("d")
    lineno = 1
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            code, types, stamps, scores, opens, ends = _read_block(block, lineno, codes, type_of)
            lineno += ends
            user += code
            user_type += types
            timestamp += stamps
            raw_score += scores
            outcome += opens
    return SendLog.from_codes(list(codes), user, user_type, timestamp, raw_score, outcome)


def _blocks(fh) -> Iterator[bytes]:
    """The bytes of a binary file as blocks of whole lines: the lines that
    end within _BLOCK_BYTES of the start of the block's first line, or, where
    none does, the reads up to the first read in which one does.

    Each read is cut after its last LF or CR and the rest carried into the
    next, but a CR that ends a read is carried too, as the next byte may be
    the LF of its CRLF. The reads of a line longer than a block are joined
    once. A read that reaches the end of the file, which a binary read
    shorter than asked for does, is not cut: what is left is the last
    block, ended by a line end or not.
    """
    rest, reads = b"", []
    while True:
        size = max(_BLOCK_BYTES - len(rest), 1)  # a carried CR fills a block of one byte
        data = rest + fh.read(size)
        if len(data) < len(rest) + size:  # the end of the file
            if last := b"".join(reads + [data]):
                yield last
            return
        # after the last LF or CR, not counting a CR that ends the read
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            reads.append(data[:cut])
            rest = data[cut:]
            del data  # not held while the block is read
            yield b"".join(reads)
            reads = []
        else:  # all one line, or a CR that ends the read
            held = data.endswith(b"\r")
            reads.append(data[:-1] if held else data)
            rest = data[-1:] if held else b""


def _read_block(block: bytes, lineno: int, codes: _Codes, type_of: array) -> tuple:
    """A block's columns, its first line being line lineno, and its count of
    line ends: one `json.loads` of the array text that `_array_text` proves
    from the bytes, read by `_read_array`; else `_read_lines`, one line at a
    time, which raises the block's first error."""
    found = _array_text(block)
    columns = found and _read_array(*found[:2], codes, type_of)
    if columns:
        return *columns, found[2]
    lines = _lines(block)  # each ends in a line end, save perhaps the file's last
    return *_read_lines(lines, lineno, codes, type_of), len(lines)


def _lines(block: bytes) -> list[str]:
    """A block's lines as a text-mode read gives them: split after each LF,
    CRLF and lone CR, each line end read as LF, each byte that is not UTF-8
    decoded to a lone surrogate."""
    return list(io.StringIO(block.decode("utf-8", "surrogateescape"), newline=None))


def _array_text(block: bytes) -> tuple[str, int, int] | None:
    """The text of a block's n non-blank lines as one JSON array, n, and
    the block's count of line ends, a CRLF counted once, where its bytes
    prove each non-blank line one `{...}` holding no other brace, padded
    only by JSON whitespace; None where they do not, or where a byte is not
    UTF-8.

    LF and CR end lines and space and tab pad them: all of JSON's
    whitespace. Among the block's braces and line ends, in order, each `{`
    must come just before a `}`, and each pair between line ends or the
    block's ends, so that each pair is one line's; every byte outside the
    pairs must be a line end or padding. A copy of the block with `,` over
    the byte after each `}` but the last is then, in `[...]`, the lines'
    array: the ends and padding left are whitespace between its elements,
    and no byte inside a string changes.
    """
    byte = np.frombuffer(block, np.uint8)
    at = np.flatnonzero((byte <= _CR) | (byte >= _OPEN))  # LF, CR and braces among a few others
    kind = byte[at]
    keep = _STRUCTURE[kind]
    if not keep.all():
        at, kind = at[keep], kind[keep]
    opens, closes = kind == _OPEN, kind == _CLOSE
    # a } just after each { and nowhere else, and no { just after a }
    if len(kind) and (closes[0] or opens[-1]) or not (closes[1:] == opens[:-1]).all() \
            or (closes[:-1] & opens[1:]).any():
        return None
    first = np.flatnonzero(opens)
    n, opens, closes = len(first), at[first], at[first + 1]
    ends = len(kind) - 2 * n  # line-end bytes, a CRLF's two
    if len(block) - n - int(closes.sum() - opens.sum()) > ends:  # padding outside the pairs
        start = np.concatenate(([0], closes + 1))
        size = np.concatenate((opens, [len(block)])) - start
        offset = np.repeat(start - (np.cumsum(size) - size), size)
        if not np.isin(byte[offset + np.arange(size.sum())], _WHITESPACE).all():
            return None
    text = bytearray().join((b"[", block, b"]"))
    np.frombuffer(text, np.uint8)[closes[:-1] + 2] = _COMMA
    try:
        text = text.decode()  # strict UTF-8; ASCII is its fast case
    except UnicodeDecodeError:
        return None
    cr = kind[:-1] == _CR
    if cr.any():
        ends -= np.count_nonzero(cr & (kind[1:] == _LF) & (np.diff(at) == 1))
    return text, n, ends


def _read_array(text: str, n: int, codes: _Codes, type_of: array) -> tuple | None:
    """The columns of n non-blank lines proved to be the n elements of the
    array text, or None where `_read_lines` must decide.

    With n objects in the array and n of each brace in the text, no brace
    is inside a string, so object k is the k-th non-blank line alone and
    equals `json.loads` of it. The fields are checked a column at a time with `_parse_line`'s
    rules. Only then are the ids coded, each new code taking the type of
    its first row, and every row's type compared with its code's: a
    mismatch is a type change, which `_read_lines` names.
    """
    try:
        objs = json.loads(text)
    except (ValueError, RecursionError):  # bad JSON, an int too long, nesting too deep
        return None
    if len(objs) != n or not set(map(type, objs)) <= {dict}:
        return None
    try:
        ids, types, stamps, scores, opens = (list(map(itemgetter(k), objs)) for k in _FIELDS)
    except KeyError:
        return None
    if not set(map(type, ids)) <= {str} or not all(ids) \
            or not set(map(type, types)) <= {int} or not set(types) <= _TYPE_SET \
            or not set(map(type, stamps)) <= {int} \
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
    user, types = array("q", map(codes.__getitem__, ids)), array("q", types)
    code, kind = np.frombuffer(user, np.int64), np.frombuffer(types, np.int64)
    # new codes, numbered in first-seen order, take their first row's type
    new = np.flatnonzero(code >= len(type_of))
    _, first = np.unique(code[new], return_index=True)
    type_of.extend(kind[new[first]].tolist())
    if not (np.frombuffer(type_of, np.int64)[code] == kind).all():
        return None
    return user, types, stamps, scores, array("d", opens)


def _read_lines(lines: list[str], lineno: int, codes: _Codes, type_of: array) -> tuple:
    """A block's columns parsed one line at a time, its first line being
    line lineno; raises the block's first error."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        bad = _RAW_BYTE.search(line)
        if bad:
            raise LogParseError(f"line {lineno}: byte {ord(bad.group()) - 0xdc00:#04x} "
                                f"is not valid UTF-8")
        uid, c, ts, score, o = _parse_line(line, lineno)
        code = codes[uid]
        if code == len(type_of):
            type_of.append(c)
        elif type_of[code] != c:
            raise LogParseError(f"line {lineno}: user {uid!r} changes type "
                                f"from {type_of[code]} to {c}")
        rows.append((code, c, ts, score, o))
    user, types, stamps, scores, opens = zip(*rows) if rows else ((),) * 5
    return array("q", user), array("q", types), array("q", stamps), array("d", scores), \
        array("d", opens)


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
