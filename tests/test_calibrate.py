"""Isotonic fit, step-function application, and window refresh."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from notif_ltv import (
    NEVER_SEND,
    CalibrationMap,
    apply_calibration,
    fit_isotonic,
    pav,
    refresh,
    score_thresholds,
)
from conftest import log_from_rows
from oracles import calibration_oracle, isotonic_fit_oracle, pav_oracle


class TestPav:
    def test_single_violation_pools(self):
        assert pav([1.1, 1.3, 1.2], [1.0] * 3) == [1.1, 1.25, 1.25]

    def test_monotone_input_is_fixed_point(self):
        vals = [0.1, 0.2, 0.2, 0.9]
        assert pav(vals, [1.0] * 4) == vals

    def test_decreasing_direction(self):
        assert pav([0.9, 0.95], [1.0] * 2, increasing=False) == [0.925, 0.925]

    def test_weights_shift_pooled_mean(self):
        # pooled mean of (1.0 w=3, 0.0 w=1) is 0.75
        assert pav([1.0, 0.0], [3.0, 1.0]) == [0.75, 0.75]

    def test_zero_weight_entry_respects_envelope(self):
        # the weightless middle cell gets pulled up to the data value
        assert pav([1.2, 1.0, 1.3], [10.0, 0.0, 5.0]) == [1.2, 1.2, 1.3]

    def test_empty_input(self):
        assert pav([], []) == []

    @pytest.mark.parametrize("increasing", [True, False])
    def test_pool_of_huge_values_stays_finite(self, increasing):
        vals = [1e308, 5e307] if increasing else [5e307, 1e308]
        assert pav(vals, [10.0, 10.0], increasing=increasing) == [7.5e307, 7.5e307]

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10),
           st.data())
    def test_matches_quadratic_oracle(self, vals, data):
        wts = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                                 min_size=len(vals), max_size=len(vals)))
        got = pav(vals, wts)
        want = pav_oracle(vals, wts)
        assert got == want
        assert all(b >= a for a, b in zip(got, got[1:]))


def float_bits(xs):
    """The float64 bit patterns of xs, so 0.0 and -0.0 differ."""
    return np.array(xs, dtype=float).view(np.int64).tolist()


# (values, weights) for pav: 0/1 outcomes pooled into o/c with weight c, as
# fit_isotonic pools tie groups; a few values under fractional and zero
# weights; values and weights whose products and sums round in floats;
# 0/1 at unit weight; and integers whose sums cross 2**53
pav_inputs = st.one_of(
    st.lists(st.integers(1, 30).flatmap(lambda c: st.tuples(st.integers(0, c), st.just(c))),
             max_size=40).map(lambda ocs: ([o / c for o, c in ocs], [c for _, c in ocs])),
    st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.1, 0.3, 0.5, 1.0]),
                       st.sampled_from([0.0, 0.5, 1.0, 3.0])),
             max_size=40).map(lambda vws: ([v for v, _ in vws], [w for _, w in vws])),
    st.lists(st.tuples(st.sampled_from([0.1, 0.2, 0.7, 1 / 3, 2 / 3]),
                       st.sampled_from([0.1, 0.3, 1.0, 3.0, 7.0])),
             max_size=40).map(lambda vws: ([v for v, _ in vws], [w for _, w in vws])),
    st.lists(st.sampled_from([0.0, 1.0]), max_size=40).map(lambda vs: (vs, [1.0] * len(vs))),
    st.lists(st.tuples(st.integers(-2 ** 52, 2 ** 52), st.sampled_from([0.0, 1.0, 3.0])),
             max_size=40).map(lambda vws: ([float(v) for v, _ in vws], [w for _, w in vws])),
)

# fractions that floats round, so v·w is inexact for most weights, and the
# two ends of [0, 1]
INEXACT = [1 / 3, 2 / 3, 2 / 7, 7 / 25, 0.1, 0.7, 0.0, 1.0]


@st.composite
def equal_value_runs(draw):
    """(values, weights): runs of one to 50 bit-equal inexact fractions, and
    weights >= 1, all up to 5 or up to 2**40."""
    runs = draw(st.lists(st.tuples(st.sampled_from(INEXACT), st.integers(1, 50)), max_size=12))
    vals = [v for v, length in runs for _ in range(length)]
    top = draw(st.sampled_from([5, 2 ** 40]))
    wts = draw(st.lists(st.integers(1, top), min_size=len(vals), max_size=len(vals)))
    return vals, [float(w) for w in wts]


@st.composite
def scored_outcomes(draw):
    """(scores, outcomes), up to 200 pairs: tie groups of one to four sends
    or of 25 (whose means, 7/25 say, floats round), with 0/1 or fractional
    outcomes, whose scores rank the groups by mean outcome, against it, or
    at random, and whose pairs come in a random order."""
    sizes = draw(st.lists(st.one_of(st.integers(1, 4), st.just(25)), min_size=2, max_size=40))
    while sum(sizes) > 200:
        sizes.pop()
    if draw(st.booleans()):
        outcome = st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 2 / 7, 0.7, 1.0])
    else:
        outcome = st.sampled_from([0, 1])
    groups = [draw(st.lists(outcome, min_size=size, max_size=size)) for size in sizes]
    scores = sorted(draw(st.lists(st.floats(0, 1), min_size=len(groups),
                                  max_size=len(groups), unique=True)))
    ranking = draw(st.sampled_from(["well-ranked", "anti-ranked", "random"]))
    if ranking != "random":
        groups.sort(key=lambda g: sum(g) / len(g), reverse=ranking == "anti-ranked")
    pairs = draw(st.permutations([(s, o) for s, g in zip(scores, groups) for o in g]))
    return [s for s, _ in pairs], [o for _, o in pairs]


class TestPavLinear:
    @settings(max_examples=400, deadline=None)
    @given(pav_inputs, st.booleans())
    def test_matches_oracle_bit_for_bit(self, inputs, increasing):
        vals, wts = inputs
        assert (float_bits(pav(vals, wts, increasing=increasing))
                == float_bits(pav_oracle(vals, wts, increasing)))

    @settings(max_examples=300, deadline=None)
    @given(equal_value_runs(), st.booleans())
    def test_run_of_equal_values_fits_as_one_member(self, inputs, increasing):
        """Pooling each run of bit-equal adjacent values into one member with
        the run's summed weight, then repeating its fitted value over the
        run, gives the element-wise fit's bits."""
        vals, wts = inputs
        bits = float_bits(vals)
        starts = [i for i in range(len(vals)) if i == 0 or bits[i] != bits[i - 1]]
        ends = starts[1:] + [len(vals)]
        fitted = pav([vals[i] for i in starts], [sum(wts[i:j]) for i, j in zip(starts, ends)],
                     increasing=increasing)
        expanded = [v for v, i, j in zip(fitted, starts, ends) for _ in range(j - i)]
        assert float_bits(expanded) == float_bits(pav(vals, wts, increasing=increasing))

    @pytest.mark.parametrize("wts, want", [
        pytest.param([1.0] * 20000, [10000.5] * 20000, id="unit-weights"),
        pytest.param([0.0] * 40000, [20000.5] * 40000, id="zero-weights"),
    ])
    def test_decreasing_values_pool_in_linear_time(self, wts, want):
        start = time.perf_counter()
        got = pav([float(len(want) - i) for i in range(len(want))], wts)
        assert time.perf_counter() - start < 2.0
        assert got == want

    @pytest.mark.parametrize("group, weight, want", [
        # one ignore group four times their weight, as from a ranker
        # clipping scores at its maximum
        pytest.param(0.0, 80000.0, 0.2, id="ignore-group"),
        # 7 opens in 25 sends, whose 7/25 times 25 is not 7 in floats
        pytest.param(7 / 25, 25.0, 20007 / 20025, id="inexact-group"),
    ])
    def test_singletons_then_heavy_tie_group_pool_in_linear_time(self, group, weight, want):
        """Opened singletons followed by one tie group that pulls them all
        into its pool."""
        start = time.perf_counter()
        got = pav([1.0] * 20000 + [group], [1.0] * 20000 + [weight])
        assert time.perf_counter() - start < 2.0
        assert got == [want] * 20001

    @pytest.mark.parametrize("scores, outcomes, want", [
        pytest.param(np.arange(20000) / 20000, np.arange(20000) < 10000,
                     0.5, id="halves"),
        # opened distinct scores below one 25-send tie group of 7 opens
        pytest.param(np.concatenate((np.arange(20000) / 40000, [0.75] * 25)),
                     np.concatenate((np.ones(20000), [1] * 7 + [0] * 18)),
                     20007 / 20025, id="inexact-tie-group"),
        # no two adjacent tie groups share a mean, so no run pools before
        # pav, and each anti-ranked pair pools to one half
        pytest.param(np.arange(20000) / 20000, np.arange(20000) % 2 == 0,
                     0.5, id="alternating"),
    ])
    def test_anti_ranked_fit_runs_in_linear_time(self, scores, outcomes, want):
        start = time.perf_counter()
        cmap = fit_isotonic(scores, outcomes)
        assert time.perf_counter() - start < 2.0
        assert cmap.values == (want,) * len(cmap.values)
        assert len(cmap.values) == len(np.unique(scores))

    @pytest.mark.parametrize("vals, wts, message", [
        ([1.0, math.nan], [1.0, 1.0], "values must be finite, got nan"),
        ([1.0, -math.inf], [1.0, 1.0], "values must be finite, got -inf"),
        ([1.0, 0.0], [math.nan, 1.0], "weights must be finite, got nan"),
        ([1.0, 0.0], [1.0, math.inf], "weights must be finite, got inf"),
    ])
    def test_rejects_non_finite_input(self, vals, wts, message):
        with pytest.raises(ValueError, match=message):
            pav(vals, wts)

    @pytest.mark.parametrize("wts, message", [
        ([1.0], "weights must match values in length"),
        ([1.0, 1.0, 1.0], "weights must match values in length"),
        ([1.0, -1.0], "weights must be non-negative"),
        ([-0.5, 2.0], "weights must be non-negative"),
    ])
    def test_rejects_weights_that_do_not_fit_the_values(self, wts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pav([1.0, 0.0], wts)


class TestFitIsotonic:
    def test_pools_violation(self):
        cmap = fit_isotonic([0.1, 0.2, 0.3], [1, 0, 1])
        assert cmap.breakpoints == (0.1, 0.2, 0.3)
        assert cmap.values == (0.5, 0.5, 1.0)

    def test_monotone_outcomes_are_fixed_point(self):
        cmap = fit_isotonic([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1])
        assert cmap.values == (0.0, 0.0, 1.0, 1.0)

    def test_all_zero_outcomes_give_constant_zero(self):
        cmap = fit_isotonic([0.2, 0.7, 0.9], [0, 0, 0])
        assert set(cmap.values) == {0.0}

    def test_ties_pooled_before_fit(self):
        cmap = fit_isotonic([0.5, 0.5, 0.2], [1, 0, 0])
        assert cmap.breakpoints == (0.2, 0.5)
        assert cmap.values == (0.0, 0.5)

    def test_fewer_than_two_pairs_rejected(self):
        with pytest.raises(ValueError):
            fit_isotonic([0.5], [1])

    def test_score_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            fit_isotonic([0.5, 1.2], [1, 0])

    @pytest.mark.parametrize("bad, shown", [(5, "5.0"), (-3, "-3.0"), (1.5, "1.5"),
                                            (math.nan, "nan"), (math.inf, "inf")])
    def test_outcome_outside_unit_interval_rejected(self, bad, shown):
        with pytest.raises(ValueError, match=rf"outcomes must lie in \[0, 1\], got {shown}$"):
            fit_isotonic([0.1, 0.2, 0.3], [1, bad, -7])

    @pytest.mark.parametrize("scores, outcomes, shapes", [
        ([0.1, 0.2], [1], r"\(2,\) and \(1,\)"),
        ([[0.1, 0.2]], [[1, 0]], r"\(1, 2\) and \(1, 2\)"),
        ([[0.1, 1], [0.2, 0]], [1, 0], r"\(2, 2\) and \(2,\)"),
        (0.5, 1, r"\(\) and \(\)"),
    ])
    def test_columns_of_other_shapes_rejected(self, scores, outcomes, shapes):
        with pytest.raises(ValueError, match=rf"1-d columns of equal length, got shapes {shapes}$"):
            fit_isotonic(scores, outcomes)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = rng.integers(2, 13)
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0], size=n)
            outcomes = rng.integers(0, 2, size=n)
            pairs = list(zip(scores.tolist(), outcomes.tolist()))
            cmap = fit_isotonic(scores, outcomes)
            bps, fitted = isotonic_fit_oracle(pairs)
            assert list(cmap.breakpoints) == bps
            assert list(cmap.values) == fitted

    @settings(max_examples=200, deadline=None)
    @given(scored_outcomes())
    def test_matches_oracle_bit_for_bit(self, inputs):
        scores, outcomes = inputs
        cmap = fit_isotonic(scores, outcomes)
        bps, fitted = isotonic_fit_oracle(list(zip(scores, outcomes)))
        assert float_bits(cmap.breakpoints) == float_bits(bps)
        assert float_bits(cmap.values) == float_bits(fitted)


class TestApplyCalibration:
    @pytest.fixture
    def cmap(self):
        return CalibrationMap(breakpoints=(0.1, 0.3), values=(0.5, 1.0))

    def test_lookup_leaves_the_map_unchanged(self, cmap):
        before = (repr(cmap), cmap.to_dict())
        apply_calibration(cmap, np.array([0.05, 0.2, 0.3]))
        assert (repr(cmap), cmap.to_dict()) == before
        assert cmap == CalibrationMap(breakpoints=(0.1, 0.3), values=(0.5, 1.0))

    def test_between_breakpoints_takes_left_value(self, cmap):
        assert apply_calibration(cmap, 0.2) == 0.5

    def test_below_first_breakpoint_clamps_left(self, cmap):
        assert apply_calibration(cmap, 0.05) == 0.5

    def test_breakpoint_is_inclusive(self, cmap):
        assert apply_calibration(cmap, 0.3) == 1.0

    @given(st.data())
    def test_non_decreasing_in_raw_score(self, data):
        n = data.draw(st.integers(1, 6))
        bps = sorted(data.draw(st.sets(st.floats(0, 1, allow_nan=False),
                                       min_size=n, max_size=n)))
        vals = sorted(data.draw(st.lists(st.floats(0, 1, allow_nan=False),
                                         min_size=n, max_size=n)))
        cmap = CalibrationMap(breakpoints=tuple(bps), values=tuple(vals))
        xs = np.linspace(0, 1, 101)
        ys = [apply_calibration(cmap, x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    @given(st.data())
    def test_array_matches_elementwise_scalar_calls(self, data):
        """Each score maps as the bisect-lookup oracle maps it alone, bit for
        bit, -0.0 values included. Scores below the first breakpoint and
        exactly on breakpoints included."""
        n = data.draw(st.integers(1, 6))
        bps = sorted(data.draw(st.sets(st.floats(0.05, 1, allow_nan=False),
                                       min_size=n, max_size=n)))
        vals = sorted(data.draw(st.lists(st.one_of(st.just(-0.0), st.floats(0, 1)),
                                         min_size=n, max_size=n)))
        cmap = CalibrationMap(breakpoints=tuple(bps), values=tuple(vals))
        scores = data.draw(st.lists(st.one_of(st.floats(0, 1), st.sampled_from(bps),
                                              st.floats(0, 0.05)), min_size=1, max_size=30))
        got = apply_calibration(cmap, np.array(scores).reshape(1, -1))
        assert got.shape == (1, len(scores))
        assert_same_bits(got[0], [calibration_oracle(cmap, x) for x in scores])


def assert_same_bits(got, want):
    """got is a float64 array holding the bits of the floats in want."""
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestRunLookup:
    """The lookup searches only the first breakpoint of each run of equal
    values, and still gives the bisect oracle's bits for every score; the
    map's runs cover its values run by run."""

    SPECIAL = [-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf, math.nan]

    def check(self, cmap):
        bps = np.array(cmap.breakpoints)
        mid = (bps[:-1] + bps[1:]) / 2
        scores = np.concatenate([self.SPECIAL, bps, mid, np.nextafter(bps, -math.inf),
                                 np.random.default_rng(3).uniform(-0.1, 1.1, 500)])
        assert_same_bits(apply_calibration(cmap, scores),
                         [calibration_oracle(cmap, x) for x in scores.tolist()])
        for x in self.SPECIAL:
            assert_same_bits(np.array([apply_calibration(cmap, x)]),
                             [calibration_oracle(cmap, x)])
        # the runs cover the values, each with its run value's bits, and
        # start at their first breakpoints; neighbouring runs differ in bits
        starts, values, lengths = cmap.runs
        assert lengths.sum() == len(cmap.values)
        assert_same_bits(np.repeat(values, lengths), cmap.values)
        assert_same_bits(starts, np.array(cmap.breakpoints)[np.cumsum(lengths) - lengths])
        bits = values.view(np.int64)
        assert (bits[1:] != bits[:-1]).all()

    def test_long_runs(self):
        rng = np.random.default_rng(11)
        bps = np.unique(rng.uniform(0.01, 0.99, 2000))
        levels = np.sort(rng.uniform(0, 1, 9))
        vals = levels[np.sort(rng.integers(0, len(levels), len(bps)))]
        cmap = CalibrationMap(breakpoints=tuple(bps.tolist()), values=tuple(vals.tolist()))
        assert len(cmap.runs[0]) == len(np.unique(vals))
        self.check(cmap)

    def test_adjacent_signed_zeros_stay_apart(self):
        vals = (-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.5, 0.5)
        cmap = CalibrationMap(breakpoints=tuple(0.1 * (i + 1) for i in range(len(vals))),
                              values=vals)
        assert len(cmap.runs[0]) == 5
        self.check(cmap)

    def test_one_value_map_of_many_breakpoints(self):
        # the shape of a map fitted on an anti-ranked window: one pool
        bps = np.linspace(0.0, 1.0, 6000)
        cmap = CalibrationMap(breakpoints=tuple(bps.tolist()), values=(0.3,) * len(bps))
        assert len(cmap.runs[0]) == 1
        self.check(cmap)


class TestScoreThresholds:
    """score_thresholds maps a calibrated threshold to the least raw score
    that reaches it, so comparing a raw score with it decides as comparing
    the score's calibrated value with the threshold."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_raw_compare_decides_as_calibrated_compare(self, data):
        """On maps with repeated values and with separate -0.0 and +0.0 runs,
        thresholds that equal run values, 0, -0.0, 1 or NEVER_SEND, and
        scores on, beside and below the breakpoints."""
        n = data.draw(st.integers(1, 8))
        bps = sorted(data.draw(st.sets(st.floats(0.05, 1), min_size=n, max_size=n)))
        # a few levels, so runs repeat; sorted keeps -0.0 and +0.0 in draw order
        levels = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)
        vals = sorted(data.draw(st.lists(levels, min_size=n, max_size=n)))
        cmap = CalibrationMap(breakpoints=tuple(bps), values=tuple(vals))
        thresholds = data.draw(st.lists(
            st.sampled_from(vals + [0.0, -0.0, 1.0, NEVER_SEND]) | st.floats(0, 1),
            min_size=1, max_size=8))
        scores = np.concatenate([bps, np.nextafter(bps, -1.0), np.nextafter(bps, 2.0),
                                 [0.0, 0.04, -1.0, -math.inf],
                                 data.draw(st.lists(st.floats(-0.5, 1.5), max_size=10))])
        raw = score_thresholds(cmap, np.array(thresholds))
        assert raw.shape == (len(thresholds),)
        calibrated = [calibration_oracle(cmap, x) for x in scores.tolist()]
        for t, r in zip(thresholds, raw.tolist()):
            assert [s >= r for s in scores.tolist()] == [v >= t for v in calibrated], (t, r)
            # the least such score: -inf, +inf, or a breakpoint that reaches t
            # where the float below it does not
            if math.isfinite(r):
                assert r in bps and calibration_oracle(cmap, r) >= t
                assert calibration_oracle(cmap, math.nextafter(r, -math.inf)) < t

    def test_run_starts_and_infinities(self):
        cmap = CalibrationMap(breakpoints=(0.1, 0.2, 0.3, 0.4), values=(-0.0, 0.0, 0.5, 0.5))
        got = score_thresholds(cmap, np.array([-0.0, 0.0, 1e-300, 0.5, 0.7, NEVER_SEND]))
        assert got.tolist() == [-math.inf, -math.inf, 0.3, 0.3, math.inf, math.inf]


def send_log(events):
    """SendLog of (user_id, user_type, timestamp, raw_score, outcome) tuples."""
    return log_from_rows(*(zip(*events) if events else ((),) * 5))


class TestRefresh:
    def make_events(self, times, score=0.5, outcome=1):
        return [("u1", 1, t, score, outcome) for t in times]

    def test_fits_on_window_events_only(self):
        inside = [("u1", 1, 1000 + i, 0.1 * (i % 9), i % 2) for i in range(100)]
        outside = self.make_events([-999999])
        cmap = refresh(send_log(outside + inside), now=2000, window_hours=24)
        assert cmap == fit_isotonic([e[3] for e in inside], [e[4] for e in inside])

    def test_single_event_window_raises(self):
        with pytest.raises(ValueError, match=r"^fewer than 2 events in the 24h window "
                                             r"ending at 200$"):
            refresh(send_log(self.make_events([100, -999999])), now=200, window_hours=24)

    def test_event_just_outside_window_excluded(self):
        now = 100 * 3600
        edge = self.make_events([now - 25 * 3600])  # 25h old with a 24h window
        inside = self.make_events([now - 3600, now - 2 * 3600], score=0.3)
        cmap = refresh(send_log(edge + inside), now=now, window_hours=24)
        assert cmap.breakpoints == (0.3,)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="fewer than 2 events in the 24h window"):
            refresh(send_log([]), now=0, window_hours=24)

    def test_window_bounds_compare_exactly_above_2_to_53(self):
        """Timestamps one apart above 2**53 are told apart at both ends of the
        window, also when now is a float."""
        start = 2 ** 53 + 4096  # float64 holds only even integers from 2**53 up
        events = [("u1", 1, t, i / 8, i % 2) for i, t in enumerate(
            [start, start + 1, start + 3600, start + 3601])]
        for now in (start + 3600, float(start + 3600)):
            cmap = refresh(send_log(events), now=now, window_hours=1)
            assert cmap.breakpoints == (1 / 8, 2 / 8)


class TestCalibrationMapValidation:
    def test_breakpoints_must_ascend(self):
        with pytest.raises(ValueError):
            CalibrationMap(breakpoints=(0.3, 0.1), values=(0.1, 0.2))

    def test_values_must_be_non_decreasing(self):
        with pytest.raises(ValueError):
            CalibrationMap(breakpoints=(0.1, 0.3), values=(0.5, 0.2))

    def test_values_must_be_probabilities(self):
        with pytest.raises(ValueError):
            CalibrationMap(breakpoints=(0.1,), values=(1.5,))

    def test_round_trip_dict(self):
        cmap = CalibrationMap(breakpoints=(0.1, 0.3), values=(0.5, 1.0))
        assert CalibrationMap.from_dict(cmap.to_dict()) == cmap

    @pytest.mark.parametrize("breakpoints, values, message", [
        ((), (), "breakpoints and values must be non-empty and equal length"),
        ((0.1, 0.2), (0.5,), "breakpoints and values must be non-empty and equal length"),
        # the first non-finite breakpoint is named, before the order is checked
        ((0.1, -math.inf, math.nan), (0.9, 0.5, 0.1), "breakpoints must be finite, got -inf"),
        ((math.nan, 0.1, math.inf), (0.1, 0.2, 0.3), "breakpoints must be finite, got nan"),
        ((0.1, 0.1), (0.9, 0.5), "breakpoints must be strictly ascending"),
        ((0.1, 0.3, 0.2), (0.1, 0.2, 0.3), "breakpoints must be strictly ascending"),
        ((0.1, 0.3), (1.5, 0.2), "values must be non-decreasing"),
        ((0.1, 0.3), (-0.5, 0.2), "values must lie in [0, 1]"),
        ((0.1, 0.3), (0.2, math.nan), "values must lie in [0, 1]"),
    ])
    def test_each_fault_raises_its_message(self, breakpoints, values, message):
        with pytest.raises(ValueError) as caught:
            CalibrationMap(breakpoints=breakpoints, values=values)
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_breakpoints_must_be_finite(self, bad):
        # a NaN breakpoint would make the array lookup (0.1 at 0.3) and the
        # scalar lookup (0.2 at 0.3) disagree
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            CalibrationMap.from_dict({"breakpoints": [0.1, bad, 0.5],
                                      "values": [0.1, 0.2, 0.3]})


def test_calibration_recovers_monotone_link():
    """Outcomes drawn as Bernoulli(g(score)) for monotone g: the fitted map
    should approach g as the sample grows."""
    rng = np.random.default_rng(7)

    def g(x):
        return 0.1 + 0.8 * x ** 2

    def mean_abs_error(n):
        scores = rng.random(n)
        outcomes = (rng.random(n) < g(scores)).astype(int)
        cmap = fit_isotonic(scores, outcomes)
        grid = rng.random(2000)
        err = np.abs(apply_calibration(cmap, grid) - g(grid))
        return float(np.mean(err))

    small, large = mean_abs_error(400), mean_abs_error(20000)
    assert large < small
    assert large < 0.03
