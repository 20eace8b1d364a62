"""Isotonic calibration of raw ranker scores to open probabilities.

The fit pools duplicate raw scores, runs weighted pool-adjacent-violators
over the pooled means, and keeps the resulting non-decreasing step function
as the calibration map. Application is a piecewise-constant lookup: a raw
score takes the value of the greatest breakpoint at or below it, and scores
below the first breakpoint clamp to the first value. The lookup searches
only the first breakpoint of each run of equal values, which gives the same
value: a fitted map has far fewer pools than breakpoints (33 against 4,056
on the benchmark's warm-up). `refresh` refits on
the sends of a `SendLog` inside a trailing time window, selected with a
mask over its timestamp column, and `fit_isotonic` takes that window's
raw-score and outcome columns as they are. A window with fewer than two
sends is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import listed, read_field
from .ingest import SendLog


def pav(values, weights=None, *, increasing: bool = True) -> list[float]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the monotone sequence closest to `values` in weighted least
    squares. A pool's mean is Σ v·w / Σ w with both sums taken over its
    members left to right from 0.0, so the result does not depend on the
    order in which pools were merged. A pool whose total weight is zero
    falls back to the plain mean of its members (zero-weight entries carry
    no evidence but must still respect the monotone envelope).

    Each pool keeps its two sums, and a merge continues the left pool's
    sums over the right pool's members. Where every v·w and w in the merged
    range is an integral float (and their magnitudes stay below 2**53),
    every partial sum is an exact integer, so the sums are differences of
    prefix sums instead: O(1) per merge, with the same bits. That makes the
    fit linear on every `fit_isotonic` input, whose tie groups pool 0/1
    outcomes as o/c with weight c. A merge into a growing right block of
    inexact products, or of a pool with zero total weight, still costs the
    block's length.
    """
    vals = [float(v) for v in values]
    if weights is None:
        wts = [1.0] * len(vals)
    else:
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

    # blocks are (start, end, mean, Σ v·w, Σ w, exact) over half-open index
    # ranges. A member is exact when v·w and w are integral and the running
    # total of exact |v·w| + w stays below 2**53; such sums are exact (and
    # +0.0 when zero) however they are grouped. The prefix sums take the
    # exact members only, so an exact block's sums are prefix differences.
    blocks: list[tuple[int, int, float, float, float, bool]] = []
    prods: list[float] = []
    wv_prefix, w_prefix = [0.0], [0.0]
    magnitude = 0.0
    for i, (v, w) in enumerate(zip(vals, wts)):
        p = v * w
        prods.append(p)
        exact = p.is_integer() and w.is_integer()
        if exact:
            magnitude += abs(p) + w
            exact = magnitude < 2.0 ** 53
        wv_prefix.append(wv_prefix[-1] + p if exact else wv_prefix[-1])
        w_prefix.append(w_prefix[-1] + w if exact else w_prefix[-1])
        start, end, mean, wv, ws = i, i + 1, v, 0.0 + p, 0.0 + w
        while blocks and blocks[-1][2] > mean:
            start, split, _, wv, ws, left_exact = blocks.pop()
            exact = exact and left_exact
            if exact:
                wv = wv_prefix[end] - wv_prefix[start]
                ws = w_prefix[end] - w_prefix[start]
            else:  # continue the left block's sums over the right block
                for j in range(split, end):
                    wv += prods[j]
                    ws += wts[j]
            mean = wv / ws if ws > 0.0 else sum(vals[start:end]) / (end - start)
        blocks.append((start, end, mean, wv, ws, exact))
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
        bad = [b for b in self.breakpoints if not math.isfinite(b)]
        if bad:
            raise ValueError(f"breakpoints must be finite, got {bad[0]}")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-decreasing")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("values must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    # the first breakpoint of each run of equal values and that run's value,
    # as float64 arrays built once per map for the lookup; runs compare value
    # bits, so -0.0 and +0.0 stay apart. Cached outside the dataclass fields,
    # so equality and to_dict ignore them
    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(self.values, dtype=float)
        bits = values.view(np.int64)
        first = np.concatenate(([True], bits[1:] != bits[:-1]))
        return np.asarray(self.breakpoints, dtype=float)[first], values[first]

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationMap":
        return cls(breakpoints=read_field(d, "breakpoints", listed),
                   values=read_field(d, "values", listed))


def fit_isotonic(scores, outcomes) -> CalibrationMap:
    """Fit the calibration map from a column of raw scores and the column of
    their outcomes, two 1-d sequences of equal length.

    Duplicate raw scores are pooled into one point (mean outcome, weighted
    by the number of scores pooled) before the monotone fit, so breakpoints
    come out strictly ascending. Requires at least two scores; raw scores
    and outcomes must lie in [0, 1].
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
    fitted = pav(pooled.tolist(), counts.tolist(), increasing=True)
    # monotone fit of 0/1 outcomes stays inside [0, 1] up to float noise
    fitted = [min(max(v, 0.0), 1.0) for v in fitted]
    return CalibrationMap(breakpoints=tuple(sorted_scores[first_of_group].tolist()),
                          values=tuple(fitted))


def apply_calibration(cmap: CalibrationMap, raw_score):
    """Step-function lookup; scores below the first breakpoint clamp left.

    Elementwise over an array of raw scores, giving an array of the same
    shape; one score gives a numpy float.
    """
    starts, values = cmap._runs
    idx = np.searchsorted(starts, raw_score, side="right")
    idx -= 1  # -1, below the first breakpoint, clips to 0
    return np.take(values, idx, mode="clip")


def window_mask(timestamp: np.ndarray, now, window_hours: int) -> np.ndarray:
    """Which int64 timestamps lie in (now - window_hours, now]. The bounds are
    floored to integers: against a float, numpy rounds int64 above 2**53."""
    start = math.floor(now - window_hours * 3600)
    return (timestamp > start) & (timestamp <= math.floor(now))


def refresh(log: SendLog, now, window_hours: int = 24) -> CalibrationMap:
    """Refit on the sends of `log` in the window (now - window_hours, now].

    Raises ValueError when fewer than two sends fall inside the window.
    """
    recent = window_mask(log.timestamp, now, window_hours)
    if np.count_nonzero(recent) < 2:
        raise ValueError(f"fewer than 2 events in the {window_hours}h window ending at {now}")
    return fit_isotonic(log.raw_score[recent], log.outcome[recent])
