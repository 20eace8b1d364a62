"""Decision-gate semantics shared by the simulator and the CLI."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from notif_ltv import (
    NEVER_SEND,
    DecisionContext,
    HeuristicThresholds,
    PolicyTable,
    decide_heuristic,
    decide_no_filter,
    decide_rl,
)
from oracles import decide_oracle, threshold_cells


def ctx(utype=1, streak=0, score=0.5, sends=0, limit=3):
    return DecisionContext(user_type=utype, streak=streak, calibrated_score=score,
                           sends_today=sends, effective_limit=limit)


def table_with(threshold_value, bounds=(-15, 15), types=(1,)):
    n = bounds[1] - bounds[0] + 1
    return PolicyTable(bounds=bounds, types=types,
                       thresholds=np.full((len(types), n), threshold_value))


class TestNoFilter:
    def test_sends_under_limit(self):
        assert decide_no_filter(ctx(sends=2, limit=3))

    def test_blocks_at_limit(self):
        assert not decide_no_filter(ctx(sends=3, limit=3))

    def test_zero_limit_never_sends(self):
        for sends in range(4):
            assert not decide_no_filter(ctx(sends=sends, limit=0))


class TestHeuristic:
    ks = HeuristicThresholds(by_type={1: 0.3, 2: 0.6})

    def test_sends_above_cutoff(self):
        assert decide_heuristic(ctx(score=0.31), self.ks)

    def test_cutoff_itself_is_not_enough(self):
        assert not decide_heuristic(ctx(score=0.3), self.ks)

    def test_limit_gate_dominates_score(self):
        assert not decide_heuristic(ctx(score=0.9, sends=3, limit=3), self.ks)

    def test_per_type_cutoffs(self):
        assert not decide_heuristic(ctx(utype=2, score=0.5), self.ks)
        assert decide_heuristic(ctx(utype=2, score=0.7), self.ks)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_score(self, a, b):
        lo, hi = sorted((a, b))
        if decide_heuristic(ctx(score=lo), self.ks):
            assert decide_heuristic(ctx(score=hi), self.ks)

    def test_rejects_cutoff_outside_unit_interval(self):
        with pytest.raises(ValueError):
            HeuristicThresholds(by_type={1: 1.4})


class TestRl:
    def test_sends_at_or_above_threshold(self):
        table = table_with(0.25)
        assert decide_rl(ctx(score=0.25), table)
        assert not decide_rl(ctx(score=0.2), table)

    def test_never_send_cell_blocks_any_score(self):
        table = table_with(NEVER_SEND)
        assert not decide_rl(ctx(score=1.0), table)

    def test_streak_clamped_before_lookup(self):
        table = table_with(0.25, bounds=(-2, 2))
        table.thresholds[0, 0] = 0.9  # streak -2 cell
        assert not decide_rl(ctx(streak=-10, score=0.5), table)
        assert decide_rl(ctx(streak=-10, score=0.95), table)

    def test_limit_gate_dominates(self):
        table = table_with(0.0)
        assert not decide_rl(ctx(score=1.0, sends=3, limit=3), table)

    def test_zero_table_equals_no_filter_on_grid(self):
        table = table_with(0.0)
        for utype in (1,):
            for streak in range(-15, 16):
                for score in np.linspace(0, 1, 11):
                    for sends in range(5):
                        for limit in range(5):
                            c = ctx(utype, streak, float(score), sends, limit)
                            assert decide_rl(c, table) == decide_no_filter(c)


@given(st.lists(st.floats(0, 1), min_size=0, max_size=30), st.integers(0, 5))
def test_all_policies_respect_send_limit(scores, limit):
    """Feeding back sends_today correctly, no policy can exceed the limit."""
    ks = HeuristicThresholds(by_type={1: 0.2})
    table = table_with(0.1)
    for decide in (decide_no_filter,
                   lambda c: decide_heuristic(c, ks),
                   lambda c: decide_rl(c, table)):
        sends = 0
        for score in scores:
            if decide(ctx(score=score, sends=sends, limit=limit)):
                sends += 1
        assert sends <= limit


# table over streaks -3..3 for types 1 and 2, with never-send cells
ARRAY_TABLE = PolicyTable(
    bounds=(-3, 3), types=(1, 2),
    thresholds=np.array([[NEVER_SEND, 0.7, 0.5, 0.3, 0.2, 0.1, 0.0],
                         [NEVER_SEND, NEVER_SEND, 0.9, 0.6, 0.4, 0.25, 0.25]]))
ARRAY_KS = HeuristicThresholds(by_type={1: 0.3, 2: 0.6})
# scores exactly on a cutoff or a threshold, plus anything in [0, 1]
SCORES = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.6, 0.7, 1.0]))


@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(-8, 8), SCORES,
                          st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
def test_array_contexts_match_elementwise_scalar_calls(rows):
    """Each candidate of a block decides as the dict-lookup oracle does for it
    alone. Streaks run past the table bounds and limits include 0."""
    types, streaks, scores, sends, limits = (np.array(col) for col in zip(*rows))
    block = DecisionContext(user_type=types, streak=streaks, calibrated_score=scores,
                            sends_today=sends, effective_limit=limits)
    cells = threshold_cells(ARRAY_TABLE)
    bounds = ARRAY_TABLE.bounds
    for decide, want in (
            (decide_no_filter, decide_oracle),
            (partial(decide_heuristic, thresholds=ARRAY_KS),
             partial(decide_oracle, cutoffs=ARRAY_KS.by_type)),
            (partial(decide_rl, table=ARRAY_TABLE),
             partial(decide_oracle, cells=cells, bounds=bounds))):
        mask = decide(block)
        assert mask.dtype == bool and mask.shape == types.shape
        assert mask.tolist() == [want(*row) for row in rows]
    assert ARRAY_TABLE.threshold(types, streaks).tolist() == \
        [cells[c, min(max(s, bounds[0]), bounds[1])]
         for c, s in zip(types.tolist(), streaks.tolist())]
    assert ARRAY_KS.k(types).tolist() == [ARRAY_KS.by_type[c] for c in types.tolist()]


def test_array_lookups_reject_types_without_a_row():
    with pytest.raises(KeyError, match=r"\[3\]"):
        ARRAY_TABLE.threshold(np.array([1, 3]), np.array([0, 0]))
    with pytest.raises(KeyError):
        ARRAY_KS.k(np.array([2, 5]))
