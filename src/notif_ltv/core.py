"""Configuration types, the streak state machine and the (type, streak)
table layout shared by the whole pipeline; the send log itself is
`ingest.SendLog`.

The streak is a signed count of consecutive identical outcomes on sent
notifications: s=+3 means the user opened the last three, s=-2 means they
ignored the last two. An ignore after a positive run flips the streak to -1
(it never just decrements), and an open after a negative run flips it to +1.
Decisions not to send leave the streak untouched. Streaks are clamped to
fixed bounds so model tables and the solver state space stay finite.

`advance_streak` and `StreakTable.at` are written once, in numpy: they
take anything numpy broadcasts, a block of users being the normal call,
and return numpy values; one Python scalar comes back as a numpy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar

import numpy as np

USER_TYPES: tuple[int, ...] = (1, 2, 3, 4, 5, 6)

DEFAULT_STREAK_BOUNDS: tuple[int, int] = (-15, 15)

_TYPE_KEYS = {str(c): c for c in USER_TYPES}
_REQUIRED = object()


def validate_user_type(value: int, name: str = "user_type") -> int:
    """Check that `value` is one of the known user types and return it as an
    int; a numpy integer counts as one."""
    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value not in USER_TYPES:
        raise ValueError(f"unknown {name} {value!r}; expected one of {list(USER_TYPES)}")
    return value


# The readers below are the only code that turns a value taken from a JSON
# document into a Python value. Each names the field in its ValueError.

def number(value, name: str, kind: str = "a number") -> float:
    """A JSON number as a float. Null, bools, strings, containers and
    integers too large for a float are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be {kind} in float range") from None


def integral(value, name: str) -> int:
    """A JSON number holding a whole number, as an int: 5.0 loads as 5 and integers
    stay exact; a fractional or non-finite float is an error, not truncated."""
    if not number(value, name, "an integer").is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def flag(value, name: str) -> bool:
    """A JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def text(value, name: str) -> str:
    """A non-empty JSON string."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def document(value, name: str) -> dict:
    """A JSON object, for its own fields to be read with `read_field`."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


# the exact item types `listed` reads in one C pass, per reader
_PLAIN = {number: frozenset({int, float}), integral: frozenset({int})}


def listed(value, name: str, length: int | None = None, read=number, *args) -> tuple:
    """A JSON list, of `length` items if given, as a tuple of
    read(item, "name[i]", *args).

    The items are read in one pass under `name`; only when that raises
    ValueError are they read again one by one, so the error names the first
    bad item's index. Before those, a list of plain ints and floats read as
    numbers, or of plain ints read as integers, is read in one C pass of
    float(): that is what `number` returns, and it raises OverflowError just
    where `number` and `integral` reject an int outside float range. Any
    other list, or an overflow, is read as above."""
    if not isinstance(value, list) or length not in (None, len(value)):
        noun = {integral: "integers", document: "objects"}.get(read, "numbers")
        size = "" if length is None else f"{length} "
        raise ValueError(f"{name} must be a list of {size}{noun}, got {value!r}")
    kinds = _PLAIN.get(read)
    if kinds is not None and set(map(type, value)) <= kinds:
        try:
            floats = tuple(map(float, value))
        except OverflowError:
            pass
        else:
            # integral(v) of a plain int in float range is v itself
            return floats if read is number else tuple(value)
    try:
        return tuple(map(read, value, repeat(name), *map(repeat, args)))
    except ValueError:
        pass
    return tuple(read(item, f"{name}[{i}]", *args) for i, item in enumerate(value))


def per_type(value, name: str, read=number, *args) -> dict:
    """A JSON object keyed by user type, "1" to "6", as {type: read(item, "name[type]")}."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object keyed by user type, got {value!r}")
    types = [validate_user_type(_TYPE_KEYS.get(key, key), f"{name} key") for key in value]
    return {c: read(item, f"{name}[{c}]", *args) for c, item in zip(types, value.values())}


def read_field(doc: dict, key: str, read, *args, default=_REQUIRED):
    """read(doc[key], key, *args). An absent key gives `default` if one is
    given and is an error otherwise."""
    if key not in document(doc, f"the document holding {key!r}"):
        if default is _REQUIRED:
            raise ValueError(f"missing required field {key!r}")
        return default
    return read(doc[key], key, *args)


def validate_streak_bounds(bounds: tuple[int, int]) -> tuple[int, int]:
    """Streak bounds must bracket both reachable signs: lo <= -1 and hi >= 1."""
    lo, hi = int(bounds[0]), int(bounds[1])
    if lo > -1 or hi < 1:
        raise ValueError(f"streak_bounds {bounds} must satisfy lo <= -1 <= 1 <= hi")
    return (lo, hi)


@dataclass
class StreakTable:
    """One value per (user type, streak) cell, in each of the arrays a
    subclass lists in ARRAYS: field name -> (dtype, reader of one JSON cell).

    Every array has shape (len(types), n_streaks): row i holds types[i] and
    column j holds streak bounds[0] + j. In JSON each array is an object of
    per-type rows; JSON has no infinity, so a +inf cell is written as null.
    """

    ARRAYS: ClassVar[dict] = {}

    bounds: tuple[int, int]
    types: tuple[int, ...]

    def __post_init__(self):
        self.bounds = validate_streak_bounds(self.bounds)
        self.types = tuple(validate_user_type(c, "table type") for c in self.types)
        if len(set(self.types)) != len(self.types):
            raise ValueError(f"types {list(self.types)} hold a user type twice")
        shape = (len(self.types), self.bounds[1] - self.bounds[0] + 1)
        for name, (dtype, _) in self.ARRAYS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")

    def at(self, values: np.ndarray, user_type, streak):
        """The cell of `values` for each (type, streak), elementwise over
        types and streaks that numpy broadcasts, the streak clamped into the
        bounds first; one pair gives a numpy scalar. A type without a row
        raises KeyError naming it."""
        lo, hi = self.bounds
        user_type = np.asarray(user_type)
        keys = np.asarray(self.types)
        if keys.size:
            rows = (user_type[..., None] == keys).argmax(axis=-1)
            known = keys[rows] == user_type
        else:  # argmax cannot reduce an empty axis, and no type has a row
            rows = np.zeros(user_type.shape, dtype=np.intp)
            known = np.zeros(user_type.shape, dtype=bool)
        if not known.all():
            absent = sorted(set(user_type[~known].tolist()))
            raise KeyError(f"no entry for user type(s) {absent}")
        return values[rows, np.clip(streak, lo, hi) - lo]

    def to_dict(self) -> dict:
        d = {"streak_bounds": list(self.bounds), "types": list(self.types)}
        for name in self.ARRAYS:
            d[name] = {str(c): [None if v == math.inf else v for v in row]
                       for c, row in zip(self.types, getattr(self, name).tolist())}
        return d

    @classmethod
    def from_dict(cls, d: dict):
        lo, hi = validate_streak_bounds(read_field(d, "streak_bounds", listed, 2, integral))
        types = read_field(d, "types", listed, None, integral)
        arrays = {}
        for name, (_, read) in cls.ARRAYS.items():
            rows = read_field(d, name, per_type, listed, hi - lo + 1, read)
            if sorted(rows) != sorted(types):
                raise ValueError(f"{name} needs one row per type in types {list(types)}")
            arrays[name] = [rows[c] for c in types]
        return cls(bounds=(lo, hi), types=types, **arrays)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the long-term-value solver.

    gamma discounts future opens per decision opportunity, stored plus 0.0
    so that a gamma of -0.0 is +0.0 and no solver value is -0.0; horizon is
    the number of remaining opportunities the backward recursion unrolls,
    stored as an int. Thresholds are exact roots, so there is no search
    resolution to configure, and the solved table takes the model's types
    and streak bounds, so neither is configured here either.
    """

    gamma: float = 0.9
    horizon: int = 250

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # the range test comes first: int() raises on an infinite or NaN horizon
        if not 1 <= self.horizon < math.inf or int(self.horizon) != self.horizon:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "gamma", self.gamma + 0.0)
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass
class SendLimitConfig:
    """Per-type daily send caps plus a global signed adjustment.

    The effective cap never goes below zero: max(limit + adjustment, 0).
    """

    limits: dict[int, int]
    adjustment: int = 0

    def __post_init__(self):
        for c, lam in self.limits.items():
            validate_user_type(c)
            if lam < 0:
                raise ValueError(f"send limit for type {c} must be >= 0, got {lam}")

    def effective_limit(self, user_type: int) -> int:
        return max(self.limits[user_type] + self.adjustment, 0)

    def with_extra_adjustment(self, extra: int) -> "SendLimitConfig":
        return SendLimitConfig(limits=dict(self.limits), adjustment=self.adjustment + extra)

    def to_dict(self) -> dict:
        return {"limits": {str(c): int(v) for c, v in sorted(self.limits.items())},
                "adjustment": int(self.adjustment)}

    @classmethod
    def from_dict(cls, d: dict) -> "SendLimitConfig":
        return cls(limits=read_field(d, "limits", per_type, integral),
                   adjustment=read_field(d, "adjustment", integral, default=0))


def advance_streak(s, outcome, bounds: tuple[int, int]):
    """Next streak after a *sent* notification resolves.

    An open extends a non-negative run (max(s, 0) + 1); an ignore extends a
    non-positive run (min(s, 0) - 1). Either way a run of the opposite sign
    restarts at +-1 rather than decrementing. The result is clamped to
    bounds, (lo, hi).

    Elementwise over streaks and outcomes that numpy broadcasts, giving an
    array of the broadcast shape; one streak and outcome give a numpy integer.
    """
    lo, hi = bounds
    # [()] turns a 0-d result into a numpy scalar and leaves arrays as they are
    return np.where(outcome, np.minimum(np.maximum(s, 0) + 1, hi),
                    np.maximum(np.minimum(s, 0) - 1, lo))[()]
