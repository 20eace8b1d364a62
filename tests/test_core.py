"""Streak state machine and core type validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import notif_ltv
from notif_ltv import (
    SendLimitConfig,
    SolverConfig,
    advance_streak,
)
from oracles import streak_oracle


class TestAdvanceStreak:
    def test_ignore_after_positive_run_flips_to_minus_one(self):
        assert advance_streak(3, 0) == -1

    def test_open_from_fresh_state(self):
        assert advance_streak(0, 1) == 1

    def test_ignore_at_lower_clamp_stays_clamped(self):
        assert advance_streak(-15, 0, bounds=(-15, 15)) == -15

    def test_open_after_negative_run_flips_to_plus_one(self):
        assert advance_streak(-7, 1) == 1

    def test_open_extends_positive_run(self):
        assert advance_streak(4, 1) == 5

    def test_ignore_extends_negative_run(self):
        assert advance_streak(-4, 0) == -5

    def test_open_at_upper_clamp_stays_clamped(self):
        assert advance_streak(15, 1, bounds=(-15, 15)) == 15

    @given(st.integers(-15, 15), st.integers(0, 1))
    def test_result_sign_matches_outcome(self, s, outcome):
        nxt = advance_streak(s, outcome)
        if outcome:
            assert nxt >= 1
        else:
            assert nxt <= -1

    @given(st.lists(st.integers(0, 1), max_size=60))
    def test_replay_is_pure_and_bounded_by_run_length(self, outcomes):
        bounds = (-15, 15)
        s1 = 0
        for o in outcomes:
            s1 = advance_streak(s1, o, bounds)
        s2 = 0
        run = 0
        for i, o in enumerate(outcomes):
            s2 = advance_streak(s2, o, bounds)
            run = run + 1 if i > 0 and outcomes[i - 1] == o else 1
            assert abs(s2) <= run
            assert bounds[0] <= s2 <= bounds[1]
        assert s1 == s2  # trace depends only on the outcome sequence

    @pytest.mark.parametrize("bounds", [(-15, 15), (-1, 1), (-3, 2)])
    def test_array_matches_elementwise_scalar_calls(self, bounds):
        lo, hi = bounds
        streaks = np.repeat(np.arange(lo, hi + 1), 2)  # both bounds included
        outcomes = np.tile([0, 1], hi - lo + 1)
        got = advance_streak(streaks, outcomes, bounds)
        assert got.tolist() == [streak_oracle(s, o, bounds)
                                for s, o in zip(streaks.tolist(), outcomes.tolist())]
        assert got.min() == lo and got.max() == hi
        assert advance_streak(streaks, 1, bounds).tolist() == \
            [streak_oracle(s, 1, bounds) for s in streaks.tolist()]


class TestSolverConfig:
    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.gamma == 0.9
        assert cfg.horizon == 250
        assert cfg.streak_bounds == (-15, 15)

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 1.0},
        {"gamma": -0.1},
        {"horizon": 0},
        {"horizon": 2.5},
        {"streak_bounds": (0, 15)},
        {"streak_bounds": (-15, 0)},
    ])
    def test_rejects_out_of_domain_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_integral_float_horizon_is_stored_as_int(self):
        cfg = SolverConfig(horizon=5.0)
        assert cfg.horizon == 5 and type(cfg.horizon) is int


class TestSendLimitConfig:
    def test_effective_limit_adds_adjustment(self):
        cfg = SendLimitConfig(limits={1: 3, 2: 5}, adjustment=1)
        assert cfg.effective_limit(1) == 4
        assert cfg.effective_limit(2) == 6

    def test_effective_limit_floors_at_zero(self):
        cfg = SendLimitConfig(limits={1: 1}, adjustment=-5)
        assert cfg.effective_limit(1) == 0

    def test_with_extra_adjustment_stacks(self):
        cfg = SendLimitConfig(limits={1: 3}, adjustment=1)
        assert cfg.with_extra_adjustment(2).effective_limit(1) == 6

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            SendLimitConfig(limits={1: -1})

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            SendLimitConfig(limits={7: 3})

    @pytest.mark.parametrize("doc", [{"limits": {"1": 2.5}},
                                     {"limits": {"1": 2}, "adjustment": -0.5},
                                     {"limits": {"1": float("inf")}}])
    def test_from_dict_rejects_fractional_values(self, doc):
        with pytest.raises(ValueError):
            SendLimitConfig.from_dict(doc)

    def test_from_dict_loads_integral_floats(self):
        cfg = SendLimitConfig.from_dict({"limits": {"1": 3.0}, "adjustment": -1.0})
        assert cfg.limits == {1: 3} and cfg.adjustment == -1


def test_package_exports_are_unique_and_resolve():
    names = notif_ltv.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(notif_ltv, name)]
    assert missing == []
