"""Streak-response model estimation.

The model says that a user in streak s opens a sent notification with
probability min(f(c, s) * p_base, 1), where p_base is the user's own
baseline open rate and f is a multiplicative factor shared by every user of
type c. Factors are estimated as a ratio of observed opens to the opens the
baselines alone would predict, projected onto a monotone shape (rising with
positive streaks, falling with negative ones), and finally shrunk toward 1
by the causal fraction kappa, since the raw estimate is correlational.

Records arrive as the columns of a `RecordSet`. The per-cell and per-type
sums (`np.add.at`, `np.bincount`) add in record order, so they equal a
loop over the records bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import CalibrationMap, apply_calibration, pav
from .core import (DEFAULT_STREAK_BOUNDS, USER_TYPES, integral, listed, per_type, read_field,
                   type_rows, validate_streak_bounds)
from .ingest import RecordSet

# keeps estimated factors strictly positive even for all-ignore cells
_FACTOR_FLOOR = 1e-12

_MEAN_OPEN_EPS = 1e-6


@dataclass
class FactorTable:
    """Per-(type, streak) multiplicative factors with their sample counts.

    factors and counts are arrays of shape (len(types), n_streaks) where
    column j holds streak bounds[0] + j. The streak-0 column is pinned to 1:
    it is the no-history state and carries no deviation by convention.
    `factor` and `count` look cells up as `PolicyTable.threshold` does: by
    `type_rows` and a streak clamped into the bounds, over arrays.
    """

    bounds: tuple[int, int]
    types: tuple[int, ...]
    factors: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.bounds = validate_streak_bounds(self.bounds)
        self.types = tuple(int(c) for c in self.types)
        n_streaks = self.bounds[1] - self.bounds[0] + 1
        self.factors = np.asarray(self.factors, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        shape = (len(self.types), n_streaks)
        if self.factors.shape != shape or self.counts.shape != shape:
            raise ValueError(f"factor/count arrays must have shape {shape}")
        if not np.all(np.isfinite(self.factors) & (self.factors > 0.0)):
            raise ValueError("factors must be finite and strictly positive")

    def factor(self, user_type, streak):
        """Factor of each (type, streak), elementwise over types and streaks
        that numpy broadcasts, the streak clamped into the bounds first; one
        pair gives a numpy float. A type without a row raises KeyError."""
        lo, hi = self.bounds
        return self.factors[type_rows(self.types, user_type), np.clip(streak, lo, hi) - lo]

    def count(self, user_type, streak):
        """Sample count of each (type, streak), looked up as `factor` is."""
        lo, hi = self.bounds
        return self.counts[type_rows(self.types, user_type), np.clip(streak, lo, hi) - lo]

    def replace_factors(self, new_factors: np.ndarray) -> "FactorTable":
        return FactorTable(bounds=self.bounds, types=self.types,
                           factors=np.asarray(new_factors, dtype=float),
                           counts=self.counts.copy())

    def to_dict(self) -> dict:
        return {
            "streak_bounds": list(self.bounds),
            "types": list(self.types),
            "factors": {str(c): [float(v) for v in self.factors[i]]
                        for i, c in enumerate(self.types)},
            "counts": {str(c): [int(v) for v in self.counts[i]]
                       for i, c in enumerate(self.types)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FactorTable":
        lo, hi = validate_streak_bounds(read_field(d, "streak_bounds", listed, 2, integral))
        types = read_field(d, "types", listed, None, integral)
        factors = read_field(d, "factors", per_type, listed, hi - lo + 1)
        counts = read_field(d, "counts", per_type, listed, hi - lo + 1, integral)
        if not sorted(factors) == sorted(counts) == sorted(types):
            raise ValueError(f"factors and counts need one row per type in types {list(types)}")
        return cls(bounds=(lo, hi), types=types,
                   factors=np.array([factors[c] for c in types], dtype=float),
                   counts=np.array([counts[c] for c in types], dtype=np.int64))


def estimate_factors(records: RecordSet,
                     bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS,
                     types: tuple[int, ...] = USER_TYPES) -> FactorTable:
    """Ratio estimator for the streak factors.

    For each (type, streak) cell, the factor is the sum of observed opens
    divided by the sum of the senders' baseline rates over the records in
    that cell: how much better or worse users did than their own baselines
    predict. Cells with no records stay at factor 1 (no effect), and the
    streak-0 column is pinned to 1 regardless of data.
    """
    if len(records) == 0:
        raise ValueError("cannot estimate factors from an empty record set")
    bounds = validate_streak_bounds(bounds)
    low, high = int(records.streak.min()), int(records.streak.max())
    if low < bounds[0] or high > bounds[1]:
        raise ValueError(f"records hold streaks {low}..{high}, outside the streak bounds "
                         f"{bounds}")
    n_streaks = bounds[1] - bounds[0] + 1
    cell = (type_rows(types, records.user_type), records.streak - bounds[0])
    opens = np.zeros((len(types), n_streaks))
    expected = np.zeros((len(types), n_streaks))
    counts = np.zeros((len(types), n_streaks), dtype=np.int64)
    np.add.at(opens, cell, records.outcome)
    np.add.at(expected, cell, records.baseline_rate)
    np.add.at(counts, cell, 1)
    factors = np.ones((len(types), n_streaks))
    populated = expected > 0.0
    factors[populated] = np.maximum(opens[populated] / expected[populated], _FACTOR_FLOOR)
    factors[:, -bounds[0]] = 1.0  # streak-0 column
    return FactorTable(bounds=bounds, types=types, factors=factors, counts=counts)


def monotone_project(raw: FactorTable) -> FactorTable:
    """Project each type's factors onto the monotone shape constraint.

    The positive branch (s = 1 .. s_max) becomes its sample-count-weighted
    non-decreasing isotonic fit and the negative branch (s = -1 down to
    s_min) its non-increasing fit, so a longer open run never predicts a
    lower factor and a longer ignore run never a higher one. Streak 0 stays
    pinned at 1.
    """
    lo, hi = raw.bounds
    zero = -lo
    factors = raw.factors.copy()
    for i in range(len(raw.types)):
        pos_vals = factors[i, zero + 1:]
        pos_wts = raw.counts[i, zero + 1:]
        factors[i, zero + 1:] = pav(pos_vals, pos_wts, increasing=True)
        # negative branch ordered s = -1, -2, ..., s_min
        neg_vals = factors[i, zero - 1::-1]
        neg_wts = raw.counts[i, zero - 1::-1]
        factors[i, zero - 1::-1] = pav(neg_vals, neg_wts, increasing=False)
    factors = np.maximum(factors, _FACTOR_FLOOR)
    factors[:, zero] = 1.0
    return raw.replace_factors(factors)


def apply_kappa(table: FactorTable, kappa: float) -> FactorTable:
    """Shrink every factor toward 1 by the causal fraction kappa.

    Only a fraction of the streak/open-rate correlation is believed to be
    causal; f -> (f - 1) * kappa + 1 keeps that fraction of the deviation.
    kappa=0 sets every factor to 1, kappa=1 keeps the table unchanged.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0, 1], got {kappa}")
    scaled = (table.factors - 1.0) * kappa + 1.0
    return table.replace_factors(np.maximum(scaled, _FACTOR_FLOOR))


def summarize_types(records: RecordSet,
                    calibration: CalibrationMap | None = None,
                    types: tuple[int, ...] = USER_TYPES,
                    ) -> dict[int, float]:
    """Per-type mean calibrated score of sent notifications.

    The mean score stands in for the open probability of a typical future
    notification for that type, which is all the solver needs about the
    score distribution. With calibration=None the raw scores are taken as
    already calibrated. Every requested type must have records; records of
    other types are ignored.
    """
    if len(records) == 0:
        raise ValueError("cannot summarize an empty record set")
    requested = np.isin(records.user_type, types)
    rows = type_rows(types, records.user_type[requested])
    scores = records.raw_score[requested]
    if calibration is not None:
        scores = apply_calibration(calibration, scores)
    score_sum = np.bincount(rows, weights=scores, minlength=len(types))
    score_n = np.bincount(rows, minlength=len(types))
    missing = [c for c, n in zip(types, score_n) if n == 0]
    if missing:
        raise ValueError(f"no records for user type(s) {missing}")
    return {c: min(max(total / n, _MEAN_OPEN_EPS), 1.0 - _MEAN_OPEN_EPS)
            for c, total, n in zip(types, score_sum.tolist(), score_n.tolist())}


@dataclass
class BehaviorModel:
    """Everything the solver needs about user behavior.

    factors is the kappa-corrected table; type_mean_open is the mean
    calibrated score of sent notifications per type, a probability in
    [0, 1].
    """

    factors: FactorTable
    type_mean_open: dict[int, float]

    def __post_init__(self):
        bad = {c: v for c, v in self.type_mean_open.items() if not 0.0 <= v <= 1.0}
        if bad:
            raise ValueError(f"mean open rates must lie in [0, 1], got {bad}")

    @property
    def types(self) -> tuple[int, ...]:
        return self.factors.types

    def to_dict(self) -> dict:
        d = {"version": 1}
        d.update(self.factors.to_dict())
        d["type_mean_open"] = {str(c): float(v) for c, v in sorted(self.type_mean_open.items())}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BehaviorModel":
        return cls(factors=FactorTable.from_dict(d),
                   type_mean_open=read_field(d, "type_mean_open", per_type))


def fit_behavior_model(records: RecordSet, kappa: float,
                       calibration: CalibrationMap | None = None,
                       bounds: tuple[int, int] = DEFAULT_STREAK_BOUNDS,
                       types: tuple[int, ...] = USER_TYPES) -> BehaviorModel:
    """Estimate, project, kappa-correct, and summarize in one pass.

    Projection runs before the kappa scaling: scaling is affine around 1,
    so it preserves monotonicity, and projecting first denoises the raw
    estimate once.
    """
    raw = estimate_factors(records, bounds, types)
    projected = monotone_project(raw)
    return BehaviorModel(factors=apply_kappa(projected, kappa),
                         type_mean_open=summarize_types(records, calibration, types))
