"""Configuration types and the streak state machine shared by the whole
pipeline; the send log itself is `ingest.SendLog`.

The streak is a signed count of consecutive identical outcomes on sent
notifications: s=+3 means the user opened the last three, s=-2 means they
ignored the last two. An ignore after a positive run flips the streak to -1
(it never just decrements), and an open after a negative run flips it to +1.
Decisions not to send leave the streak untouched. Streaks are clamped to
fixed bounds so model tables and the solver state space stay finite.

`advance_streak` and `type_rows` are written once, in numpy: they take
anything numpy broadcasts, a block of users being the normal call, and
return numpy values; one Python scalar comes back as a numpy scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

USER_TYPES: tuple[int, ...] = (1, 2, 3, 4, 5, 6)

DEFAULT_STREAK_BOUNDS: tuple[int, int] = (-15, 15)

_TYPE_KEYS = {str(c): c for c in USER_TYPES}
_REQUIRED = object()


def validate_user_type(value: int, name: str = "user_type") -> int:
    """Check that `value` is one of the known user types and return it."""
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


def listed(value, name: str, length: int | None = None, read=number, *args) -> tuple:
    """A JSON list, of `length` items if given, as a tuple of
    read(item, "name[i]", *args)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        noun = {integral: "integers", document: "objects"}.get(read, "numbers")
        size = "" if length is None else f"{length} "
        raise ValueError(f"{name} must be a list of {size}{noun}, got {value!r}")
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


def type_rows(types: tuple[int, ...], user_type):
    """Position of each user type in `types`, elementwise over anything numpy
    broadcasts; one type gives a numpy integer.

    Raises KeyError naming the user types that have no position.
    """
    user_type = np.asarray(user_type)
    keys = np.asarray(types)
    rows = (user_type[..., None] == keys).argmax(axis=-1)
    if not (keys[rows] == user_type).all():
        absent = sorted(set(user_type[keys[rows] != user_type].tolist()))
        raise KeyError(f"no entry for user type(s) {absent}")
    return rows


def validate_streak_bounds(bounds: tuple[int, int]) -> tuple[int, int]:
    """Streak bounds must bracket both reachable signs: lo <= -1 and hi >= 1."""
    lo, hi = int(bounds[0]), int(bounds[1])
    if lo > -1 or hi < 1:
        raise ValueError(f"streak_bounds {bounds} must satisfy lo <= -1 <= 1 <= hi")
    return (lo, hi)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the long-term-value solver.

    gamma discounts future opens per decision opportunity; horizon is the
    number of remaining opportunities the backward recursion unrolls,
    stored as an int. Thresholds are exact roots, so there is no search
    resolution to configure.
    """

    gamma: float = 0.9
    horizon: int = 250
    streak_bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "streak_bounds", validate_streak_bounds(self.streak_bounds))


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


def advance_streak(s, outcome, bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS):
    """Next streak after a *sent* notification resolves.

    An open extends a non-negative run (max(s, 0) + 1); an ignore extends a
    non-positive run (min(s, 0) - 1). Either way a run of the opposite sign
    restarts at +-1 rather than decrementing. The result is clamped.

    Elementwise over streaks and outcomes that numpy broadcasts, giving an
    array of the broadcast shape; one streak and outcome give a numpy integer.
    """
    lo, hi = bounds
    # [()] turns a 0-d result into a numpy scalar and leaves arrays as they are
    return np.where(outcome, np.minimum(np.maximum(s, 0) + 1, hi),
                    np.maximum(np.minimum(s, 0) - 1, lo))[()]
