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
Each step is one flat kernel over the raveled grid: a single gather reads
the up and down columns of the discounted values, and preallocated buffers
take every intermediate. The fixed-point test runs every few steps rather
than every step, which is exact because a step at the fixed point returns
its input bit for bit.

The policy itself is a table of score thresholds: for each (type, streak)
cell, the smallest calibrated score at which sending is worth at least as
much as skipping. The send advantage is linear in the score below the
probability clip, so that score is the exact root of a linear function.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorModel
from .core import (SolverConfig, advance_streak, integral, listed, number, per_type, read_field,
                   type_rows, validate_streak_bounds)

# threshold meaning "no score justifies sending"; any score compares below it
NEVER_SEND = math.inf

# state_values tests for its fixed point once per this many steps
_FIXED_POINT_STRIDE = 16


def _grid(model: BehaviorModel, config: SolverConfig):
    """Factors over the solver's streak bounds, the type-mean open column,
    and the column each streak moves to after an open (up) or an ignore
    (down)."""
    lo, hi = config.streak_bounds
    mlo, mhi = model.factors.bounds
    if lo < mlo or hi > mhi:
        raise ValueError(
            f"solver bounds {config.streak_bounds} exceed model bounds {model.factors.bounds}")
    missing = [c for c in model.types if c not in model.type_mean_open]
    if missing:
        raise ValueError(f"model has no mean open rate for type(s) {missing}")
    streaks = np.arange(lo, hi + 1)
    up = advance_streak(streaks, 1, (lo, hi)) - lo
    down = advance_streak(streaks, 0, (lo, hi)) - lo
    factors = model.factors.factors[:, lo - mlo:hi - mlo + 1]
    ybar = np.array([[model.type_mean_open[c]] for c in model.types], dtype=float)
    return factors, ybar, up, down


def _send_value(p_open, next_values, up, down, gamma):
    return (p_open * (1.0 + gamma * next_values[:, up])
            + (1.0 - p_open) * (gamma * next_values[:, down]))


def q_send(model: BehaviorModel, config: SolverConfig, next_values: np.ndarray, p):
    """Value of sending a notification with open probability p, per cell.

    next_values holds the state values one step later, shape (len(types),
    n_streaks); p broadcasts against that grid. The open branch advances
    the streak and earns 1 now; the ignore branch breaks it.
    """
    factors, _, up, down = _grid(model, config)
    return _send_value(np.minimum(factors * p, 1.0), next_values, up, down, config.gamma)


def state_values(model: BehaviorModel, config: SolverConfig, steps: int) -> np.ndarray:
    """Optimal values with `steps` decision opportunities left, for every
    (type, streak) cell at once: shape (len(types), n_streaks).

    Future notifications are represented by the type-mean open probability.
    Each step keeps the larger of sending and skipping, ties going to send.
    A step is one flat kernel over the raveled grid, written into buffers
    allocated once: skip = gamma V, one gather of skip at the up and down
    columns gives gamma V_up and gamma V_down together (scaling commutes
    with gathering), and send takes the operations of `_send_value` in the
    same order, so the values are the bits of that backup step by step.

    The loop stops early at its fixed point, so a huge `steps` costs no more
    than reaching it. It tests for it every _FIXED_POINT_STRIDE steps, not
    every step, and still returns the bits of running all `steps`: factors
    are finite and > 0, mean open rates lie in [0, 1] and gamma in [0, 1),
    so every value is finite and >= +0.0 (no NaN, no -0.0), equality is
    bit equality, and a step at the fixed point returns its input bit for
    bit, as does every step after it.
    """
    factors, ybar, up, down = _grid(model, config)
    gamma = config.gamma
    p_open = np.minimum(factors * ybar, 1.0).ravel()
    n = p_open.size
    rows = np.arange(0, n, factors.shape[1])[:, None]
    # gathered[:n] is gamma V_up and gathered[n:] gamma V_down, per flat cell
    index = np.concatenate([(rows + up).ravel(), (rows + down).ravel()])
    weights = np.concatenate([p_open, 1.0 - p_open])
    values = np.zeros(n)
    skip = np.empty(n)
    gathered = np.empty(2 * n)
    send = gathered[:n]
    sends = np.empty(n, dtype=bool)
    for step in range(1, steps + 1):
        np.multiply(gamma, values, out=skip)
        skip.take(index, out=gathered)
        np.add(1.0, send, out=send)
        np.multiply(weights, gathered, out=gathered)
        np.add(send, gathered[n:], out=send)
        # skip becomes the next values: send where send >= skip, NaN skips
        np.greater_equal(send, skip, out=sends)
        np.copyto(skip, send, where=sends)
        if step % _FIXED_POINT_STRIDE == 0 and np.array_equal(skip, values):
            break
        values, skip = skip, values
    return values.reshape(factors.shape)


@dataclass
class PolicyTable:
    """Solved send thresholds per (user type, streak).

    thresholds has shape (len(types), n_streaks), column j holding streak
    bounds[0] + j as in `FactorTable`. It holds calibrated scores in [0, 1];
    math.inf (NEVER_SEND) marks cells where sending is never worthwhile.
    Anything else, NaN included, is rejected.
    """

    bounds: tuple[int, int]
    types: tuple[int, ...]
    thresholds: np.ndarray

    def __post_init__(self):
        self.bounds = validate_streak_bounds(self.bounds)
        self.types = tuple(int(c) for c in self.types)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        lo, hi = self.bounds
        shape = (len(self.types), hi - lo + 1)
        if self.thresholds.shape != shape:
            raise ValueError(f"thresholds must have shape {shape}")
        t = self.thresholds
        if not np.all(((t >= 0.0) & (t <= 1.0)) | (t == NEVER_SEND)):
            raise ValueError("thresholds must lie in [0, 1] or be never-send (+inf)")

    def threshold(self, user_type, streak):
        """Lookup with the streak clamped into the table bounds first.

        Elementwise over types and streaks that numpy broadcasts, giving an
        array; one (type, streak) pair gives a numpy float. A type without a
        row raises KeyError.
        """
        lo, hi = self.bounds
        return self.thresholds[type_rows(self.types, user_type), np.clip(streak, lo, hi) - lo]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "types": list(self.types),
            "streak_bounds": list(self.bounds),
            "thresholds": {
                str(c): [None if math.isinf(v) else float(v) for v in self.thresholds[i]]
                for i, c in enumerate(self.types)
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyTable":
        lo, hi = validate_streak_bounds(read_field(d, "streak_bounds", listed, 2, integral))
        types = read_field(d, "types", listed, None, integral)
        rows = read_field(d, "thresholds", per_type, listed, hi - lo + 1,
                          lambda v, name: NEVER_SEND if v is None else number(v, name))
        if sorted(rows) != sorted(types):
            raise ValueError(f"thresholds need one row per type in types {list(types)}")
        return cls(bounds=(lo, hi), types=types,
                   thresholds=np.array([rows[c] for c in types], dtype=float))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["user_type", "streak", "threshold"])
        lo, hi = self.bounds
        for i, c in enumerate(self.types):
            for s in range(lo, hi + 1):
                v = self.thresholds[i, s - lo]
                writer.writerow([c, s, "never_send" if math.isinf(v) else repr(float(v))])
        return buf.getvalue()


def solve_policy(model: BehaviorModel, config: SolverConfig) -> PolicyTable:
    """Solve one threshold per (type, streak) cell.

    A cell whose advantage of sending over skipping is non-negative at score
    0 always sends (threshold 0); one whose advantage is negative even at
    score 1 never sends. Between the two the advantage rises linearly and
    the threshold is its root gamma (V - V_down) / (f (1 + gamma (V_up -
    V_down))), with V, V_up and V_down the next-step values of staying,
    opening and ignoring. Identical inputs give bit-identical tables.
    """
    values = state_values(model, config, config.horizon - 1)
    factors, _, up, down = _grid(model, config)
    gamma = config.gamma
    skip = gamma * values
    always = q_send(model, config, values, 0.0) - skip >= 0.0
    never = q_send(model, config, values, 1.0) - skip < 0.0
    # a perfect score sends in every remaining cell; the root refines that
    thresholds = np.where(always, 0.0, np.where(never, NEVER_SEND, 1.0))
    v_down = values[:, down]
    slope = factors * (1.0 + gamma * (values[:, up] - v_down))
    root = ~always & ~never & (slope > 0.0)
    np.divide(gamma * (values - v_down), slope, out=thresholds, where=root)
    # rounding can push the root a hair past 1, where sending already wins
    np.minimum(thresholds, 1.0, out=thresholds, where=root)
    return PolicyTable(bounds=config.streak_bounds, types=model.types, thresholds=thresholds)
