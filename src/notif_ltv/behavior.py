"""Streak-response model estimation.

The model says that a user in streak s opens a sent notification with
probability min(f(c, s) * p_base, 1), where p_base is the user's own
baseline open rate and f is a multiplicative factor shared by every user of
type c. Factors are estimated as a ratio of observed opens to the opens the
baselines alone would predict, projected onto a monotone shape (rising with
positive streaks, falling with negative ones), and finally shrunk toward 1
by the causal fraction kappa, since the raw estimate is correlational.

Records arrive as the columns of a `RecordSet`. The per-cell and per-type
sums are `np.bincount`s, which add in record order, so they equal a loop
over the records bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import CalibrationMap, apply_calibration, pav
from .core import StreakTable, integral, number, per_type, read_field, validate_streak_bounds
from .ingest import RecordSet

# keeps estimated factors strictly positive even for all-ignore cells
_FACTOR_FLOOR = 1e-12

_MEAN_OPEN_EPS = 1e-6


@dataclass
class FactorTable(StreakTable):
    """Per-(type, streak) multiplicative factors with their sample counts,
    laid out and looked up as every `StreakTable`. The streak-0 column is
    pinned to 1: it is the no-history state and carries no deviation by
    convention.
    """

    ARRAYS = {"factors": (float, number), "counts": (np.int64, integral)}

    factors: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.factors) & (self.factors > 0.0)):
            raise ValueError("factors must be finite and strictly positive")

    def replace_factors(self, new_factors: np.ndarray) -> "FactorTable":
        return FactorTable(self.bounds, self.types, new_factors, self.counts.copy())


def estimate_factors(records: RecordSet) -> FactorTable:
    """Ratio estimator for the streak factors, over the user types the
    records hold, in ascending order, and the streak bounds they carry.

    For each (type, streak) cell, the factor is the sum of observed opens
    divided by the sum of the senders' baseline rates over the records in
    that cell: how much better or worse users did than their own baselines
    predict. Cells with no records stay at factor 1 (no effect), and the
    streak-0 column is pinned to 1 regardless of data.
    """
    if len(records) == 0:
        raise ValueError("cannot estimate factors from an empty record set")
    bounds = validate_streak_bounds(records.bounds)
    low, high = int(records.streak.min()), int(records.streak.max())
    if low < bounds[0] or high > bounds[1]:
        raise ValueError(f"records hold streaks {low}..{high}, outside their streak bounds "
                         f"{bounds}")
    types, rows = np.unique(records.user_type, return_inverse=True)
    shape = (len(types), bounds[1] - bounds[0] + 1)
    # the range check above keeps each streak inside its type's row
    cell = rows * shape[1] + (records.streak - bounds[0])
    opens, expected, counts = (np.bincount(cell, w, minlength=shape[0] * shape[1]).reshape(shape)
                               for w in (records.outcome, records.baseline_rate, None))
    factors = np.ones(shape)
    populated = expected > 0.0
    factors[populated] = np.maximum(opens[populated] / expected[populated], _FACTOR_FLOOR)
    factors[:, -bounds[0]] = 1.0  # streak-0 column
    return FactorTable(bounds=bounds, types=tuple(types.tolist()), factors=factors,
                       counts=counts)


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
                    calibration: CalibrationMap | None = None) -> dict[int, float]:
    """Per-type mean calibrated score of sent notifications, for each user
    type the records hold, in ascending type order.

    The mean score stands in for the open probability of a typical future
    notification for that type, which is all the solver needs about the
    score distribution. With calibration=None the raw scores are taken as
    already calibrated.
    """
    if len(records) == 0:
        raise ValueError("cannot summarize an empty record set")
    types, rows = np.unique(records.user_type, return_inverse=True)
    scores = records.raw_score
    if calibration is not None:
        scores = apply_calibration(calibration, scores)
    score_sum = np.bincount(rows, weights=scores)
    score_n = np.bincount(rows)
    return {c: min(max(total / n, _MEAN_OPEN_EPS), 1.0 - _MEAN_OPEN_EPS)
            for c, total, n in zip(types.tolist(), score_sum.tolist(), score_n.tolist())}


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
        missing = [c for c in self.types if c not in self.type_mean_open]
        if missing:
            raise ValueError(f"type_mean_open has no entry for user type(s) {missing}")

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
                       calibration: CalibrationMap | None = None) -> BehaviorModel:
    """Estimate, project, kappa-correct, and summarize in one pass, for the
    user types the records hold and at the streak bounds they carry.

    Projection runs before the kappa scaling: scaling is affine around 1,
    so it preserves monotonicity, and projecting first denoises the raw
    estimate once.
    """
    projected = monotone_project(estimate_factors(records))
    return BehaviorModel(factors=apply_kappa(projected, kappa),
                         type_mean_open=summarize_types(records, calibration))
