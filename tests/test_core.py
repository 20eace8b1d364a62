"""Streak state machine, core type validation and the (type, streak) table."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import notif_ltv
from notif_ltv import (
    FactorTable,
    PolicyTable,
    SendLimitConfig,
    SolverConfig,
    advance_streak,
)
from notif_ltv.core import integral, listed, number, per_type, read_field
from oracles import streak_oracle


class TestAdvanceStreak:
    def test_ignore_after_positive_run_flips_to_minus_one(self):
        assert advance_streak(3, 0, (-15, 15)) == -1

    def test_open_from_fresh_state(self):
        assert advance_streak(0, 1, (-15, 15)) == 1

    def test_ignore_at_lower_clamp_stays_clamped(self):
        assert advance_streak(-15, 0, (-15, 15)) == -15

    def test_open_after_negative_run_flips_to_plus_one(self):
        assert advance_streak(-7, 1, (-15, 15)) == 1

    def test_open_extends_positive_run(self):
        assert advance_streak(4, 1, (-15, 15)) == 5

    def test_ignore_extends_negative_run(self):
        assert advance_streak(-4, 0, (-15, 15)) == -5

    def test_open_at_upper_clamp_stays_clamped(self):
        assert advance_streak(15, 1, (-15, 15)) == 15

    @given(st.integers(-15, 15), st.integers(0, 1))
    def test_result_sign_matches_outcome(self, s, outcome):
        nxt = advance_streak(s, outcome, (-15, 15))
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

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 1.0},
        {"gamma": -0.1},
        {"horizon": 0},
        {"horizon": 2.5},
        pytest.param({"horizon": math.inf}, id="horizon-inf"),
        pytest.param({"horizon": math.nan}, id="horizon-nan"),
    ])
    def test_rejects_out_of_domain_values(self, kwargs):
        (field, value), = kwargs.items()
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
            SolverConfig(**kwargs)

    def test_integral_float_horizon_is_stored_as_int(self):
        cfg = SolverConfig(horizon=5.0)
        assert cfg.horizon == 5 and type(cfg.horizon) is int

    def test_negative_zero_gamma_is_stored_as_positive_zero(self):
        assert math.copysign(1.0, SolverConfig(gamma=-0.0).gamma) == 1.0


# ints in float range, past it both ways, and at its edge: float() rounds
# 2**1024 - 2**971 to the largest float and 2**1024 - 2**970 up past it
_INT = st.one_of(st.integers(-2 ** 60, 2 ** 60), st.integers(-2 ** 1100, 2 ** 1100),
                 st.sampled_from([2 ** 1024 - 2 ** 971, -(2 ** 1024 - 2 ** 970)]))
_PLAIN = st.one_of(_INT, st.sampled_from([-0.0, 5.0, math.nan, math.inf, -math.inf]))


class TestListed:
    @pytest.mark.parametrize("doc", [{}, {"Days": 3, "day": 3}])
    def test_absent_field_without_a_default_is_an_error(self, doc):
        with pytest.raises(ValueError, match=r"^missing required field 'days'$"):
            read_field(doc, "days", integral)
        assert read_field(doc, "days", integral, default=None) is None

    def test_reads_every_item_with_the_reader_and_its_arguments(self):
        assert listed([1, 2.0], "xs") == (1.0, 2.0)
        assert listed([3.0, -1], "bounds", 2, integral) == (3, -1)
        rows = per_type({"1": [0.5, 1], "2": [2, 3]}, "factors", listed, 2)
        assert rows == {1: (0.5, 1.0), 2: (2.0, 3.0)}

    def test_error_names_the_first_bad_item(self):
        with pytest.raises(ValueError, match=r"^breakpoints\[1\] must be a number, got 'x'$"):
            listed([0.1, "x", None], "breakpoints")
        with pytest.raises(ValueError, match=r"^streak_bounds\[0\] must be an integer, got 0.5$"):
            listed([0.5, 1], "streak_bounds", 2, integral)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_INT, max_size=6), st.lists(_PLAIN, max_size=6),
                     st.lists(st.one_of(_PLAIN, st.booleans(), st.none(), st.text(max_size=3)),
                              max_size=6)),
           st.sampled_from([number, integral]))
    def test_reads_as_the_item_by_item_reader_does(self, items, read):
        """Every list, the plain int and float ones that take the one-pass
        read included, gives the tuple or the first error of reading item
        by item."""
        def outcome(call):
            try:
                return [(type(v), repr(v)) for v in call()]
            except ValueError as exc:
                return str(exc)

        want = outcome(lambda: [read(v, f"xs[{i}]") for i, v in enumerate(items)])
        assert outcome(lambda: listed(items, "xs", None, read)) == want

    def test_error_through_per_type_names_the_row_and_the_item(self):
        doc = {"1": [1.0] * 5, "2": [1.0, 1.0, 1.0, None, True]}
        with pytest.raises(ValueError, match=r"^factors\[2\]\[3\] must be a number, got None$"):
            per_type(doc, "factors", listed, 5)


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


def _table_fields(cls, bounds=(-2, 2), types=(1, 2), shape=None):
    """Constructor arguments of a `cls` table holding 1 in every cell."""
    shape = shape or (len(types), bounds[1] - bounds[0] + 1)
    return dict(bounds=bounds, types=types,
                **{name: np.ones(shape, dtype) for name, (dtype, _) in cls.ARRAYS.items()})


def _edited_rows(cls, edit):
    """The JSON document of a valid two-type `cls` table, edit(rows) applied
    to the per-type rows of each of its arrays."""
    doc = json.loads(json.dumps(cls(**_table_fields(cls)).to_dict()))
    for name in cls.ARRAYS:
        edit(doc[name])
    return doc


TABLE_FAULTS = {  # case -> (raise it for a table class, message pattern)
    "type without a row": (lambda cls: cls.from_dict(_edited_rows(cls, lambda r: r.pop("2"))),
                           "needs one row per type in types"),
    "row for a type not in types": (
        lambda cls: cls.from_dict(_edited_rows(cls, lambda r: r.update({"3": r["1"]}))),
        "needs one row per type in types"),
    "row of the wrong length": (
        lambda cls: cls.from_dict(_edited_rows(cls, lambda r: r["1"].pop())),
        r"\[1\] must be a list of 5 "),
    "array of the wrong shape": (lambda cls: cls(**_table_fields(cls, shape=(2, 4))),
                                 r"must have shape \(2, 5\)"),
    "bounds with lo > -1": (lambda cls: cls(**_table_fields(cls, bounds=(0, 2))),
                            "must satisfy lo <= -1"),
    "duplicate type": (lambda cls: cls(**_table_fields(cls, types=(1, 1))),
                       r"types \[1, 1\] hold a user type twice"),
    "unknown type": (lambda cls: cls(**_table_fields(cls, types=(7,))), "unknown table type 7"),
}


@pytest.mark.parametrize("case", TABLE_FAULTS)
@pytest.mark.parametrize("cls", [FactorTable, PolicyTable])
def test_table_boundary_faults_are_value_errors(cls, case):
    """Both table types share one bounds, type, shape and per-type-row check."""
    raise_it, message = TABLE_FAULTS[case]
    with pytest.raises(ValueError, match=message):
        raise_it(cls)


def test_table_types_given_as_numpy_integers_load_as_ints():
    """A types array from numpy becomes plain ints, so to_dict's JSON dumps."""
    table = PolicyTable(**_table_fields(PolicyTable, types=np.array([1, 2])))
    assert [type(c) for c in table.types] == [int, int]
    assert PolicyTable.from_dict(json.loads(json.dumps(table.to_dict()))).types == (1, 2)


def test_package_exports_are_unique_and_resolve():
    names = notif_ltv.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(notif_ltv, name)]
    assert missing == []
