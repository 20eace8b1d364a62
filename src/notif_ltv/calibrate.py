"""Isotonic calibration of raw ranker scores to open probabilities.

The fit pools duplicate raw scores, runs weighted pool-adjacent-violators
over the pooled means, and keeps the resulting non-decreasing step function
as the calibration map. Application is a piecewise-constant lookup: a raw
score takes the value of the greatest breakpoint at or below it, and scores
below the first breakpoint clamp to the first value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import NotificationEvent


def pav(values, weights=None, *, increasing: bool = True) -> list[float]:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the monotone sequence closest to `values` in weighted least
    squares. Pool means are recomputed from the original slice left to
    right, so the result does not depend on the order in which pools were
    merged. A pool whose total weight is zero falls back to the plain mean
    of its members (zero-weight entries carry no evidence but must still
    respect the monotone envelope).
    """
    vals = [float(v) for v in values]
    if weights is None:
        wts = [1.0] * len(vals)
    else:
        wts = [float(w) for w in weights]
        if len(wts) != len(vals):
            raise ValueError("weights must match values in length")
        if any(w < 0 for w in wts):
            raise ValueError("weights must be non-negative")
    if not increasing:
        return [-v for v in pav([-v for v in vals], wts, increasing=True)]
    if not vals:
        return []

    def pooled_mean(start: int, end: int) -> float:
        wsum = 0.0
        wvsum = 0.0
        for i in range(start, end):
            wvsum += vals[i] * wts[i]
            wsum += wts[i]
        if wsum > 0.0:
            return wvsum / wsum
        return sum(vals[start:end]) / (end - start)

    # blocks are (start, end, value) over half-open index ranges
    blocks: list[tuple[int, int, float]] = []
    for i, v in enumerate(vals):
        blocks.append((i, i + 1, v))
        while len(blocks) > 1 and blocks[-2][2] > blocks[-1][2]:
            s1, _, _ = blocks[-2]
            _, e2, _ = blocks[-1]
            blocks.pop()
            blocks.pop()
            blocks.append((s1, e2, pooled_mean(s1, e2)))
    out = []
    for start, end, value in blocks:
        out.extend([value] * (end - start))
    return out


@dataclass(frozen=True)
class CalibrationMap:
    """Non-decreasing step map from raw score to calibrated open probability."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    fitted_at: float = 0.0
    window_hours: int = 24

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ValueError("breakpoints and values must be non-empty and equal length")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-decreasing")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("values must lie in [0, 1]")
        if self.window_hours <= 0:
            raise ValueError("window_hours must be positive")

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
            "fitted_at": self.fitted_at,
            "window_hours": self.window_hours,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationMap":
        return cls(
            breakpoints=tuple(float(b) for b in d["breakpoints"]),
            values=tuple(float(v) for v in d["values"]),
            fitted_at=float(d.get("fitted_at", 0.0)),
            window_hours=int(d.get("window_hours", 24)),
        )


def fit_isotonic(pairs, weights=None, *, fitted_at: float = 0.0,
                 window_hours: int = 24) -> CalibrationMap:
    """Fit the calibration map from (raw_score, outcome) pairs.

    Duplicate raw scores are pooled into one point (weighted mean outcome)
    before the monotone fit, so breakpoints come out strictly ascending.
    Requires at least two pairs; raw scores must lie in [0, 1].
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 pairs to fit calibration, got {len(pairs)}")
    if weights is None:
        weights = [1.0] * len(pairs)
    else:
        weights = [float(w) for w in weights]
        if len(weights) != len(pairs):
            raise ValueError("weights must match pairs in length")
    for score, _ in pairs:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"raw scores must lie in [0, 1], got {score}")

    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    breakpoints: list[float] = []
    pooled_vals: list[float] = []
    pooled_wts: list[float] = []
    i = 0
    while i < len(order):
        score = pairs[order[i]][0]
        wy = 0.0
        w = 0.0
        j = i
        while j < len(order) and pairs[order[j]][0] == score:
            idx = order[j]
            wy += float(pairs[idx][1]) * weights[idx]
            w += weights[idx]
            j += 1
        breakpoints.append(float(score))
        pooled_vals.append(wy / w if w > 0 else
                           sum(float(pairs[order[k]][1]) for k in range(i, j)) / (j - i))
        pooled_wts.append(w)
        i = j

    fitted = pav(pooled_vals, pooled_wts, increasing=True)
    # monotone fit of 0/1 outcomes stays inside [0, 1] up to float noise
    fitted = [min(max(v, 0.0), 1.0) for v in fitted]
    return CalibrationMap(breakpoints=tuple(breakpoints), values=tuple(fitted),
                          fitted_at=fitted_at, window_hours=window_hours)


def apply_calibration(cmap: CalibrationMap, raw_score):
    """Step-function lookup; scores below the first breakpoint clamp left.

    Takes one raw score, giving a float, or an array of them, giving an
    array of the same shape.
    """
    if isinstance(raw_score, np.ndarray):
        idx = np.searchsorted(cmap.breakpoints, raw_score, side="right")
        idx -= 1  # -1, below the first breakpoint, clips to 0
        return np.take(cmap.values, idx, mode="clip")
    # one score: bisect costs a fraction of numpy's per-call overhead
    idx = bisect_right(cmap.breakpoints, raw_score) - 1
    return cmap.values[idx if idx > 0 else 0]


def refresh(events: list[NotificationEvent], now: float, window_hours: int = 24,
            previous: CalibrationMap | None = None) -> CalibrationMap | None:
    """Refit on events with timestamp in (now - window, now].

    Keeps the previous map when fewer than two events fall inside the
    window (availability over freshness for a periodic job).
    """
    window_start = now - window_hours * 3600.0
    recent = [e for e in events if window_start < e.timestamp <= now]
    if len(recent) < 2:
        return previous
    return fit_isotonic([(e.raw_score, e.outcome) for e in recent],
                        fitted_at=now, window_hours=window_hours)
