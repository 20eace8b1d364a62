"""Runtime send/skip policies.

Every policy applies the daily send-limit gate itself, mirroring the outer
check of the production decision loop, so no caller can accidentally bypass
it. The caller owns the per-user counters (sends today, streak) and passes
them in as a DecisionContext.

A context holds a block of candidates, one per user, as equal-length array
fields, and a policy answers a boolean mask. Each policy is one numpy
expression, so a context with scalar fields, one candidate, gets a numpy
bool.

Every policy here is a threshold rule, elementwise over the block: for a
fixed type and streak, if it sends at one calibrated score it sends at
every higher one, and sends today and the effective limit enter only
through `sends_today < effective_limit`. The simulator relies on that: it
calls a policy on a grid of (type, streak, score) cells once per block of
users and tabulates the smallest score that sends, instead of calling it
every pass. A policy added here must keep to that contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import per_type, type_rows, validate_user_type
from .solver import PolicyTable


@dataclass(frozen=True)
class HeuristicThresholds:
    """Per-type fixed score cutoffs for the heuristic filter."""

    by_type: dict[int, float]

    def __post_init__(self):
        for c, k in self.by_type.items():
            validate_user_type(c)
            if not 0.0 <= k <= 1.0:
                raise ValueError(f"threshold for type {c} must be in [0, 1], got {k}")

    def k(self, user_type):
        """Cutoff of each user type, elementwise; a type without one raises KeyError."""
        return np.array(list(self.by_type.values()))[type_rows(tuple(self.by_type), user_type)]

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
    return _under_limit(ctx) & (ctx.calibrated_score > thresholds.k(ctx.user_type))


def decide_rl(ctx: DecisionContext, table: PolicyTable):
    """Send when the score reaches the solved (type, streak) threshold.

    Ties send, matching the solver's tie-breaking. A NEVER_SEND cell is
    math.inf, which no score in [0, 1] can reach.
    """
    return _under_limit(ctx) & (ctx.calibrated_score >= table.threshold(ctx.user_type, ctx.streak))
