"""Runtime send/skip policies.

The `decide_*` functions are the reference form of one decision: each
applies the daily send-limit gate itself, so a caller of one cannot bypass
it. The caller owns the per-user counters (sends today, streak) and passes
them in as a DecisionContext. The simulator calls none of them:
`sim.simulate_pass` applies the same gate itself, and each arm's
`PolicyTable` as thresholds on the raw score, to every arm at once.

A context holds a block of candidates, one per user, as equal-length array
fields, and a policy answers a boolean mask. Each policy is one numpy
expression, so a context with scalar fields, one candidate, gets a numpy
bool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import USER_TYPES, per_type, validate_user_type
from .solver import NEVER_SEND, PolicyTable

# the no-filter policy as a table: every calibrated score reaches 0
NO_FILTER = PolicyTable(bounds=(-1, 1), types=USER_TYPES,
                        thresholds=np.zeros((len(USER_TYPES), 3)))


@dataclass(frozen=True)
class HeuristicThresholds:
    """Per-type fixed score cutoffs for the heuristic filter."""

    by_type: dict[int, float]

    def __post_init__(self):
        for c, k in self.by_type.items():
            validate_user_type(c)
            if not 0.0 <= k <= 1.0:
                raise ValueError(f"threshold for type {c} must be in [0, 1], got {k}")

    @cached_property
    def table(self) -> PolicyTable:
        """The cutoffs as a table, one row per type and the same threshold at
        every streak: the smallest float above k, so that for any float score
        `score >= threshold` is `score > k`, or NEVER_SEND where k = 1, which
        no score in [0, 1] reaches."""
        ks = np.array(list(self.by_type.values()), dtype=float).reshape(-1, 1)
        above = np.where(ks < 1.0, np.nextafter(ks, 2.0), NEVER_SEND)
        return PolicyTable(bounds=(-1, 1), types=tuple(self.by_type),
                           thresholds=np.repeat(above, 3, axis=1))

    @classmethod
    def from_dict(cls, d: dict) -> "HeuristicThresholds":
        return cls(by_type=per_type(d, "thresholds"))


@dataclass(frozen=True)
class DecisionContext:
    """Everything a policy may look at for a block of candidate
    notifications, one equal-length array per field."""

    user_type: int | np.ndarray
    streak: int | np.ndarray
    calibrated_score: float | np.ndarray
    sends_today: int | np.ndarray
    effective_limit: int | np.ndarray


def _under_limit(ctx: DecisionContext):
    return np.less(ctx.sends_today, ctx.effective_limit)


def decide_no_filter(ctx: DecisionContext):
    """Send everything the daily limit allows."""
    return _under_limit(ctx)


def decide_heuristic(ctx: DecisionContext, thresholds: HeuristicThresholds):
    """Send when the calibrated score strictly exceeds the type's cutoff."""
    return decide_rl(ctx, thresholds.table)


def decide_rl(ctx: DecisionContext, table: PolicyTable):
    """Send when the score reaches the solved (type, streak) threshold.

    Ties send, matching the solver's tie-breaking. A NEVER_SEND cell is
    math.inf, which no score in [0, 1] can reach.
    """
    return _under_limit(ctx) & (ctx.calibrated_score >= table.threshold(ctx.user_type, ctx.streak))
