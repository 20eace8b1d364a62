"""Isotonic calibration of raw ranker scores to open probabilities.

The fit pools duplicate raw scores, runs weighted pool-adjacent-violators
over the pooled means, and keeps the resulting non-decreasing step function
as the calibration map. Adjacent tie groups with equal means always share a
fitted value, so the fit hands `pav` one member per run of them (1,382 runs
for 5,998 tie groups on the benchmark's anti-ranked window), with the same
bits as a member per tie group. Application is a piecewise-constant
lookup: a raw score takes the value of the greatest breakpoint at or below
it, and scores below the first breakpoint clamp to the first value. The
lookup searches only the first breakpoint of each run of equal values,
which gives the same value: a fitted map has far fewer pools than
breakpoints (33 against 4,056 on the benchmark's warm-up). One run finder,
`CalibrationMap.runs`, serves the lookup, `score_thresholds` and the CLI's
writer of `cal.json`, which renders each run's value once.
`score_thresholds` maps a calibrated threshold back to the least raw score
that reaches it, so a caller that compares many scores with few thresholds
maps the thresholds once. `refresh` refits on the sends of a `SendLog`
inside a trailing time window, selected with a mask over its timestamp
column, and `fit_isotonic` takes that window's raw-score and outcome
columns as they are. A window with fewer than two sends is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import listed, read_field
from .ingest import SendLog

DEFAULT_WINDOW_HOURS = 24


def pav(values, weights, *, increasing: bool = True) -> list[float]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the monotone sequence closest to `values` in least squares
    weighted by `weights`, one per value. A pool's value is the exact
    Σ v·w / Σ w of its members, or their exact plain mean when its total
    weight is zero (zero-weight entries carry no evidence but must still
    respect the monotone envelope), rounded once to the nearest float; a
    pool of one member keeps its value, -0.0 included. Each pool keeps its
    sums as integers over one power-of-two scale, so a merge adds two
    pools' sums and the fit is linear in the number of values.
    """
    vals = [float(v) for v in values]
    wts = [float(w) for w in weights]
    if len(wts) != len(vals):
        raise ValueError("weights must match values in length")
    for name, xs in (("values", vals), ("weights", wts)):
        bad = [x for x in xs if not math.isfinite(x)]
        if bad:
            raise ValueError(f"{name} must be finite, got {bad[0]}")
    if any(w < 0 for w in wts):
        raise ValueError("weights must be non-negative")
    if not increasing:
        return [-v for v in pav([-v for v in vals], wts, increasing=True)]
    if not vals:
        return []

    # every float is an integer over a power of two, so over the largest
    # denominator `scale` each v and w is the integer v·scale, w·scale
    v_ratios = [v.as_integer_ratio() for v in vals]
    w_ratios = [w.as_integer_ratio() for w in wts]
    scale = max(max(d for _, d in v_ratios), max(d for _, d in w_ratios))
    scaled_vals = [n * (scale // d) for n, d in v_ratios]
    scaled_wts = [n * (scale // d) for n, d in w_ratios]
    # blocks are (start, end, value, Σ v·w, Σ w, Σ v) over half-open index
    # ranges, with the sums scaled by scale², scale and scale
    blocks: list[tuple[int, int, float, int, int, int]] = []
    for i, (v, sv, ws) in enumerate(zip(vals, scaled_vals, scaled_wts)):
        start, end, mean, wv = i, i + 1, v, sv * ws
        while blocks and blocks[-1][2] > mean:
            start, _, _, left_wv, left_ws, left_sv = blocks.pop()
            wv, ws, sv = wv + left_wv, ws + left_ws, sv + left_sv
            mean = wv / (ws * scale) if ws else sv / ((end - start) * scale)
        blocks.append((start, end, mean, wv, ws, sv))
    out = []
    for start, end, mean, _, _, _ in blocks:
        out.extend([mean] * (end - start))
    return out


@dataclass(frozen=True)
class CalibrationMap:
    """Non-decreasing step map from raw score to calibrated open probability."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ValueError("breakpoints and values must be non-empty and equal length")
        breakpoints = np.asarray(self.breakpoints, dtype=float)
        values = np.asarray(self.values, dtype=float)
        finite = np.isfinite(breakpoints)
        if not finite.all():
            first = self.breakpoints[int(np.argmin(finite))]
            raise ValueError(f"breakpoints must be finite, got {first}")
        if (breakpoints[1:] <= breakpoints[:-1]).any():
            raise ValueError("breakpoints must be strictly ascending")
        if (values[1:] < values[:-1]).any():
            raise ValueError("values must be non-decreasing")
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError("values must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    # cached outside the dataclass fields, so equality and to_dict ignore it
    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, values, lengths): the first breakpoint, the value and the
        length of each run of equal values, built once per map. Runs compare
        value bits, so -0.0 and +0.0 stay apart. The one run finder of the
        lookup, `score_thresholds` and the CLI's writer of the map's values."""
        values = np.asarray(self.values, dtype=float)
        bits = values.view(np.int64)
        first = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        return (np.asarray(self.breakpoints, dtype=float)[first], values[first],
                np.diff(first, append=len(values)))

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationMap":
        return cls(breakpoints=read_field(d, "breakpoints", listed),
                   values=read_field(d, "values", listed))


def fit_isotonic(scores, outcomes) -> CalibrationMap:
    """Fit the calibration map from a column of raw scores and the column of
    their outcomes, two 1-d sequences of equal length.

    Duplicate raw scores are pooled into one point (mean outcome, weighted
    by the number of scores pooled) before the monotone fit, so breakpoints
    come out strictly ascending. Each run of adjacent points with bit-equal
    means then enters `pav` as one member weighted by the run's count. That
    changes no bit: within a final pool every prefix has a mean at or above
    the pool's and every suffix one at or below it, so two equal values v
    that fell into adjacent pools B | B' would give m(B') <= v <= m(B) <=
    m(B'), both pools of exact mean v; and `pav`'s exact sums of v·w over a
    run equal v·Σw. Requires at least two scores; raw scores and outcomes
    must lie in [0, 1], and so does each fitted value, a mean of outcomes
    rounded once.
    """
    scores = np.asarray(scores, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    if scores.ndim != 1 or scores.shape != outcomes.shape:
        raise ValueError(f"scores and outcomes must be 1-d columns of equal length, "
                         f"got shapes {scores.shape} and {outcomes.shape}")
    if len(scores) < 2:
        raise ValueError(f"need at least 2 scores to fit calibration, got {len(scores)}")
    for name, column in (("raw scores", scores), ("outcomes", outcomes)):
        outside = ~((column >= 0.0) & (column <= 1.0))
        if outside.any():
            raise ValueError(f"{name} must lie in [0, 1], got {column[outside][0]}")

    # a stable sort keeps tied scores in input order, so bincount adds each
    # tie group's outcomes in the order of a left-to-right pass over the pairs
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    first_of_group = np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    group = np.cumsum(first_of_group) - 1
    counts = np.bincount(group)
    pooled = np.bincount(group, weights=outcomes[order]) / counts
    # adjacent tie groups with bit-equal means share a fitted value, so pav
    # fits one member per run of them, weighted by the run's summed counts
    # (exact integers below 2**53), and each run's value is repeated back
    bits = pooled.view(np.int64)
    first_of_run = np.concatenate(([True], bits[1:] != bits[:-1]))
    run = np.cumsum(first_of_run) - 1
    fitted = pav(pooled[first_of_run].tolist(), np.bincount(run, weights=counts).tolist())
    return CalibrationMap(breakpoints=tuple(sorted_scores[first_of_group].tolist()),
                          values=tuple(np.repeat(fitted, np.bincount(run)).tolist()))


def apply_calibration(cmap: CalibrationMap, raw_score):
    """Step-function lookup; scores below the first breakpoint clamp left.

    Elementwise over an array of raw scores, giving an array of the same
    shape; one score gives a numpy float.
    """
    starts, values, _ = cmap.runs
    idx = np.searchsorted(starts, raw_score, side="right")
    idx -= 1  # -1, below the first breakpoint, clips to 0
    return np.take(values, idx, mode="clip")


def score_thresholds(cmap: CalibrationMap, threshold):
    """The least raw score whose calibrated value reaches each threshold:
    -inf where the first run's value already does, +inf where no run's
    does, and otherwise the first breakpoint of the first run that does.

    So `apply_calibration(cmap, s) >= t` holds exactly when
    `s >= score_thresholds(cmap, t)`, for every finite raw score s and
    every threshold t that is not NaN: a threshold can be compared on the
    raw scale once instead of looking up every score. Elementwise like
    `apply_calibration`.
    """
    starts, values, _ = cmap.runs
    # runs are non-decreasing, and -0.0 and +0.0 compare equal here as in >=
    idx = np.searchsorted(values, threshold, side="left")
    return np.concatenate(([-math.inf], starts[1:], [math.inf])).take(idx)


def window_mask(timestamp: np.ndarray, now, window_hours: int) -> np.ndarray:
    """Which int64 timestamps lie in (now - window_hours, now]. The bounds are
    floored to integers: against a float, numpy rounds int64 above 2**53."""
    start = math.floor(now - window_hours * 3600)
    return (timestamp > start) & (timestamp <= math.floor(now))


def refresh(log: SendLog, now, window_hours: int = DEFAULT_WINDOW_HOURS) -> CalibrationMap:
    """Refit on the sends of `log` in the window (now - window_hours, now].

    Raises ValueError when fewer than two sends fall inside the window.
    """
    recent = window_mask(log.timestamp, now, window_hours)
    if np.count_nonzero(recent) < 2:
        raise ValueError(f"fewer than 2 events in the {window_hours}h window ending at {now}")
    return fit_isotonic(log.raw_score[recent], log.outcome[recent])
