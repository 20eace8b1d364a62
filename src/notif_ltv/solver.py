"""Finite-horizon send/skip solver.

Works backward from the horizon over the (user type, streak) grid, one
array step per decision opportunity. Sending a notification with open
probability p either extends the open streak (probability min(f*p, 1),
immediate reward 1) or breaks it; skipping keeps the streak and only
discounts the future. Future notifications enter only through their open
probability, and the solver takes each future score to be the per-type mean
score, so the value function depends only on (type, streak, steps
remaining). Given the next step's values, one step's send value is linear
in an unclipped probability, so for that one step the mean score gives the
expectation over scores exactly (acceptance check c3). Across future steps
it is an approximation: each step takes the max of send and skip, and
min(f*p, 1) can clip, neither of which is linear in p. On the true-factor
config of acceptance check c7, value iteration over 32 per-type quantile
atoms of the calibrated score moved the predicted discounted opens per user
from 1.126 to 1.150.
Each step is one flat kernel of six array calls over the raveled grid (a
gather of the up and down columns, preallocated buffers, np.maximum of send
and skip) at numpy's per-call floor, which sets a step's cost on a grid of a
few hundred cells: the gather does not buffer its output, no call converts a
Python float, and all but np.maximum, whose positional output numpy 2.4
deprecates, take their output positionally. The fixed-point test runs every
few steps, exact as a step at the fixed point returns its input's bits.

The policy itself is a table of score thresholds: for each (type, streak)
cell, the smallest calibrated score at which sending is worth at least as
much as skipping. The send advantage is linear in the score below the
probability clip, so that score is the exact root of a linear function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorModel
from .core import SolverConfig, StreakTable, advance_streak, number

# threshold meaning "no score justifies sending"; any score compares below it
NEVER_SEND = math.inf

# state_values tests for its fixed point once per this many steps
_FIXED_POINT_STRIDE = 16


def _grid(model: BehaviorModel):
    """The model's factors, the type-mean open column, and the column each
    streak moves to after an open (up) or an ignore (down)."""
    lo, hi = model.factors.bounds
    streaks = np.arange(lo, hi + 1)
    up = advance_streak(streaks, 1, (lo, hi)) - lo
    down = advance_streak(streaks, 0, (lo, hi)) - lo
    factors = model.factors.factors
    ybar = np.array([[model.type_mean_open[c]] for c in model.types], dtype=float)
    return factors, ybar, up, down


def q_send(model: BehaviorModel, config: SolverConfig, next_values: np.ndarray, p):
    """Value of sending a notification with open probability p, per cell.

    next_values holds the state values one step later, shape (len(types),
    n_streaks); p broadcasts against that grid. The open branch advances
    the streak and earns 1 now; the ignore branch breaks it.
    """
    factors, _, up, down = _grid(model)
    p_open, gamma = np.minimum(factors * p, 1.0), config.gamma
    return (p_open * (1.0 + gamma * next_values[:, up])
            + (1.0 - p_open) * (gamma * next_values[:, down]))


def state_values(model: BehaviorModel, config: SolverConfig, steps: int) -> np.ndarray:
    """Optimal values with `steps` decision opportunities left, for every
    (type, streak) cell at once: shape (len(types), n_streaks).

    Future notifications are represented by the type-mean open probability.
    Each step keeps the larger of sending and skipping. A step is one flat
    kernel over the raveled grid, written into buffers allocated once:
    skip = gamma V, one gather of skip at the up and down columns gives
    gamma V_up and gamma V_down together (scaling commutes with gathering),
    send takes the operations of `q_send` in the same order, and
    np.maximum(send, skip) is the next V, so the values are the bits of
    its backup step by step.

    Each call is made at numpy's per-call floor, which on this small grid
    is most of a step's cost. The gather runs in take's mode="clip": in the
    default mode="raise" numpy buffers `out` on every call. Clipping would
    hide a bad index, so the index is checked once before the loop and an
    index outside the flat grid raises IndexError there, even for zero
    steps. gamma and the 1.0 of 1 + gamma V_up are arrays of the grid's
    length, as a Python float operand costs a scalar conversion on every
    call, and outputs are positional, sparing keyword parsing (np.maximum
    keeps out=: numpy 2.4 deprecates a third positional argument to it);
    the products and sums are the same, bit for bit.

    No NaN and no -0.0 reaches np.maximum, which leaves open which operand
    it returns on a tie: factors are finite and > 0, mean open rates lie in
    [0, 1], and gamma lies in [0, 1) with SolverConfig storing a zero as
    +0.0. So skip = gamma V is finite and >= +0.0 whenever V is, the ignore
    term (1 - p) gamma V_down is too, and adding it to the open term, which
    is -0.0 only when p is, makes send >= +0.0. Every value is therefore
    finite and >= +0.0, equal values have equal bits, and a tie returns the
    same bits whichever operand wins.

    The loop stops early at its fixed point, so a huge `steps` costs no more
    than reaching it. It tests for it every _FIXED_POINT_STRIDE steps, not
    every step, and still returns the bits of running all `steps`: equality
    is bit equality, and a step at the fixed point returns its input bit for
    bit, as does every step after it.
    """
    factors, ybar, up, down = _grid(model)
    p_open = np.minimum(factors * ybar, 1.0).ravel()
    n = p_open.size
    rows = np.arange(0, n, factors.shape[1])[:, None]
    # gathered[:n] is gamma V_up and gathered[n:] gamma V_down, per flat cell
    index = np.concatenate([(rows + up).ravel(), (rows + down).ravel()])
    # the gather clips rather than raises, so its index is checked here once
    outside = (index < 0) | (index >= n)
    if outside.any():
        raise IndexError(f"index {index[outside][0]} is out of bounds for axis 0 with size {n}")
    weights = np.concatenate([p_open, 1.0 - p_open])
    gamma, one = np.full(n, config.gamma), np.ones(n)
    values = np.zeros(n)
    skip = np.empty(n)
    gathered = np.empty(2 * n)
    send, ignored = gathered[:n], gathered[n:]
    multiply, add, maximum = np.multiply, np.add, np.maximum
    for step in range(1, steps + 1):
        multiply(gamma, values, skip)
        skip.take(index, None, gathered, "clip")
        add(one, send, send)
        multiply(weights, gathered, gathered)
        add(send, ignored, send)
        # skip becomes the next values, the larger of send and skip
        maximum(send, skip, out=skip)
        # bit equality, the fixed point's test, without np.array_equal's wrapper
        if step % _FIXED_POINT_STRIDE == 0 and skip.tobytes() == values.tobytes():
            break
        values, skip = skip, values
    return values.reshape(factors.shape)


def _threshold(value, name: str) -> float:
    """A threshold cell: a finite JSON number, or null for never-send."""
    if value is None:
        return NEVER_SEND
    v = number(value, name)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be a finite number or null (never send), got {value!r}")
    return v


@dataclass
class PolicyTable(StreakTable):
    """Solved send thresholds per (user type, streak), laid out and looked up
    as every `StreakTable`. They are calibrated scores in [0, 1]; math.inf
    (NEVER_SEND), written as null, marks cells where sending is never
    worthwhile. Anything else, NaN included, is rejected.
    """

    ARRAYS = {"thresholds": (float, _threshold)}

    thresholds: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        t = self.thresholds
        if not np.all(((t >= 0.0) & (t <= 1.0)) | (t == NEVER_SEND)):
            raise ValueError("thresholds must lie in [0, 1] or be never-send (+inf)")

    def threshold(self, user_type, streak):
        """Threshold of each (type, streak), as `StreakTable.at` looks it up."""
        return self.at(self.thresholds, user_type, streak)

    def to_dict(self) -> dict:
        return {"version": 1, **super().to_dict()}


def solve_policy(model: BehaviorModel, config: SolverConfig) -> PolicyTable:
    """Solve one threshold per (type, streak) cell of the model's factor
    table; the policy table has the model's types and streak bounds.

    A cell whose advantage of sending over skipping is non-negative at score
    0 always sends (threshold 0); one whose advantage is negative even at
    score 1 never sends. Between the two the advantage rises linearly and
    the threshold is its root gamma (V - V_down) / (f (1 + gamma (V_up -
    V_down))), with V, V_up and V_down the next-step values of staying,
    opening and ignoring. Identical inputs give bit-identical tables.
    """
    values = state_values(model, config, config.horizon - 1)
    factors, _, up, down = _grid(model)
    gamma = config.gamma
    v_up, v_down = values[:, up], values[:, down]
    skip = gamma * values
    # q_send's send values at scores 0 (exactly gamma V_down, as V >= +0.0) and 1
    always = gamma * v_down >= skip
    p1 = np.minimum(factors, 1.0)
    never = p1 * (1.0 + gamma * v_up) + (1.0 - p1) * (gamma * v_down) < skip
    # a perfect score sends in every remaining cell; the root refines that
    thresholds = np.where(always, 0.0, np.where(never, NEVER_SEND, 1.0))
    with np.errstate(over="ignore"):  # a factor near the float limit gives slope inf, root 0
        slope = factors * (1.0 + gamma * (v_up - v_down))
    root = ~always & ~never & (slope > 0.0)
    np.divide(gamma * (values - v_down), slope, out=thresholds, where=root)
    # rounding can push the root a hair past 1, where sending already wins
    np.minimum(thresholds, 1.0, out=thresholds, where=root)
    return PolicyTable(bounds=model.factors.bounds, types=model.types, thresholds=thresholds)
