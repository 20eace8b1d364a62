"""Factor estimation, monotone projection, kappa correction, summaries."""

import json
from collections import namedtuple

import numpy as np
import pytest

from notif_ltv import (
    BehaviorModel,
    CalibrationMap,
    FactorTable,
    RecordSet,
    apply_calibration,
    apply_kappa,
    build_dataset,
    estimate_factors,
    fit_behavior_model,
    monotone_project,
    summarize_types,
)
from conftest import log_from_rows, make_model
from oracles import pav_oracle


Rec = namedtuple("Rec", "user_id user_type streak outcome baseline_rate raw_score")


def rec(uid="u1", utype=1, streak=1, outcome=1, baseline=0.5, score=0.5):
    return Rec(user_id=uid, user_type=utype, streak=streak, outcome=outcome,
               baseline_rate=baseline, raw_score=score)


def columns(records, bounds=(-15, 15)) -> RecordSet:
    """The RecordSet of a list of Rec rows at the given streak bounds, user
    ids numbered as first seen."""
    code = {}
    return RecordSet(bounds=bounds,
                     user=np.array([code.setdefault(r.user_id, len(code)) for r in records],
                                   dtype=np.int64),
                     user_type=np.array([r.user_type for r in records], dtype=np.int64),
                     streak=np.array([r.streak for r in records], dtype=np.int64),
                     outcome=np.array([r.outcome for r in records], dtype=np.int64),
                     baseline_rate=np.array([r.baseline_rate for r in records], dtype=float),
                     raw_score=np.array([r.raw_score for r in records], dtype=float))


class TestEstimateFactors:
    def test_ratio_of_opens_to_expected_opens(self):
        records = [rec(streak=2, baseline=0.5, outcome=1),
                   rec(streak=2, baseline=0.25, outcome=0),
                   rec(streak=2, baseline=0.5, outcome=1)]
        table = estimate_factors(columns(records, bounds=(-3, 3)))
        assert table.factor(1, 2) == pytest.approx(2 / 1.25)  # = 1.6
        assert table.count(1, 2) == 3

    def test_empty_cells_default_to_one(self):
        table = estimate_factors(columns([rec(streak=1)], bounds=(-8, 8)))
        assert table.factor(1, 7) == 1.0
        assert table.count(1, 7) == 0

    def test_outcomes_matching_baselines_give_factor_one(self):
        # opens exactly equal the baseline-predicted opens: 1+0 == 0.6+0.4
        records = [rec(uid="a", streak=1, baseline=0.6, outcome=1),
                   rec(uid="b", streak=1, baseline=0.4, outcome=0)]
        table = estimate_factors(columns(records, bounds=(-2, 2)))
        assert table.factor(1, 1) == pytest.approx(1.0)

    def test_streak_zero_cell_pinned_to_one(self):
        records = [rec(streak=0, baseline=0.1, outcome=1)] * 5
        table = estimate_factors(columns(records, bounds=(-2, 2)))
        assert table.factor(1, 0) == 1.0
        assert table.count(1, 0) == 5

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            estimate_factors(columns([]))

    @pytest.mark.parametrize("second_half", [0, 1], ids=["all ignores", "all opens"])
    def test_records_fit_at_the_bounds_they_were_built_at(self, second_half):
        # wider than the default (-15, 15), with runs of 20 at one end
        outcomes = [1, 0] * 15 + [second_half] * 30
        log = log_from_rows(["u1"] * 60, [1] * 60, range(60), [0.5] * 60, outcomes)
        records = build_dataset(log, min_samples=1, bounds=(-20, 20))
        table = estimate_factors(records)
        assert table.bounds == (-20, 20)
        assert table.count(1, 20 if second_half else -20) == 10

    def test_streaks_outside_the_records_bounds_rejected(self):
        records = columns([rec(streak=3)], bounds=(-2, 2))
        with pytest.raises(ValueError, match=r"3\.\.3.*\(-2, 2\)"):
            estimate_factors(records)

    def test_recovers_known_factors_within_three_sigma(self):
        """Records generated exactly from the multiplicative model with a
        known factor table; the ratio estimator must land within 3 sigma on
        >= 1e5 records."""
        rng = np.random.default_rng(20240811)
        bounds = (-3, 3)
        true = {-3: 0.7, -2: 0.8, -1: 0.9, 0: 1.0, 1: 1.1, 2: 1.2, 3: 1.3}
        baselines = rng.uniform(0.2, 0.6, size=300)
        records = []
        n_total = 120_000
        streaks = rng.integers(-3, 4, size=n_total)
        users = rng.integers(0, len(baselines), size=n_total)
        opens = rng.random(n_total)
        for i in range(n_total):
            b = baselines[users[i]]
            s = int(streaks[i])
            p = min(true[s] * b, 1.0)
            records.append(rec(uid=f"u{users[i]}", streak=s,
                               outcome=int(opens[i] < p), baseline=b))
        table = estimate_factors(columns(records, bounds=bounds))
        for s, f_true in true.items():
            if s == 0:
                continue  # pinned by convention
            cell = [r for r in records if r.streak == s]
            den = sum(r.baseline_rate for r in cell)
            var = sum(min(f_true * r.baseline_rate, 1.0)
                      * (1 - min(f_true * r.baseline_rate, 1.0)) for r in cell)
            sigma = np.sqrt(var) / den
            assert abs(table.factor(1, s) - f_true) < 3 * sigma, f"streak {s}"


class TestFactorTableLookup:
    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(4)
        return FactorTable(bounds=(-3, 2), types=(2, 5, 6),
                           factors=rng.uniform(0.5, 1.5, size=(3, 6)),
                           counts=rng.integers(0, 50, size=(3, 6)))

    def test_arrays_match_a_loop_over_the_cells(self, table):
        lo, hi = table.bounds
        user_type = np.array([[2, 5, 6], [6, 6, 2]])
        streak = np.array([[-3, 0, 2], [1, -1, -2]])
        want_factors = [[table.factors[table.types.index(c), s - lo] for c, s in zip(cs, ss)]
                        for cs, ss in zip(user_type.tolist(), streak.tolist())]
        want_counts = [[table.counts[table.types.index(c), s - lo] for c, s in zip(cs, ss)]
                       for cs, ss in zip(user_type.tolist(), streak.tolist())]
        assert table.factor(user_type, streak).tolist() == want_factors
        assert table.count(user_type, streak).tolist() == want_counts
        # one type against a row of streaks broadcasts
        assert table.factor(5, np.arange(lo, hi + 1)).tolist() == table.factors[1].tolist()

    def test_streaks_outside_the_bounds_clamp(self, table):
        assert table.factor(5, -40) == table.factors[1, 0]
        assert table.factor(5, 40) == table.factors[1, -1]
        assert table.count(np.array([2, 6]), np.array([-4, 3])).tolist() == \
            [table.counts[0, 0], table.counts[2, -1]]

    def test_unknown_type_raises_key_error(self, table):
        with pytest.raises(KeyError, match=r"\[3\]"):
            table.factor(np.array([2, 3]), 0)
        with pytest.raises(KeyError):
            table.count(1, 0)


class TestMonotoneProject:
    def make_table(self, pos, neg, counts_pos=None, counts_neg=None, bounds=(-3, 3)):
        lo, hi = bounds
        factors = np.ones((1, hi - lo + 1))
        counts = np.zeros((1, hi - lo + 1), dtype=np.int64)
        for i, v in enumerate(pos):
            factors[0, (1 + i) - lo] = v
            counts[0, (1 + i) - lo] = (counts_pos or [1] * len(pos))[i]
        for i, v in enumerate(neg):  # neg given in order s=-1, -2, ...
            factors[0, (-1 - i) - lo] = v
            counts[0, (-1 - i) - lo] = (counts_neg or [1] * len(neg))[i]
        return FactorTable(bounds=bounds, types=(1,), factors=factors, counts=counts)

    def test_positive_branch_pooled(self):
        table = self.make_table(pos=[1.1, 1.3, 1.2], neg=[0.9, 0.8, 0.7])
        out = monotone_project(table)
        assert [out.factor(1, s) for s in (1, 2, 3)] == [1.1, 1.25, 1.25]

    def test_already_monotone_unchanged(self):
        table = self.make_table(pos=[1.1, 1.2, 1.3], neg=[0.9, 0.8, 0.7])
        out = monotone_project(table)
        assert np.array_equal(out.factors, table.factors)

    def test_negative_branch_pooled_on_reversed_order(self):
        table = self.make_table(pos=[1.1, 1.2, 1.3], neg=[0.9, 0.95, 0.7])
        out = monotone_project(table)
        assert out.factor(1, -1) == pytest.approx(0.925)
        assert out.factor(1, -2) == pytest.approx(0.925)
        assert out.factor(1, -3) == pytest.approx(0.7)

    def test_idempotent_and_preserves_weighted_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pos = rng.uniform(0.5, 1.8, size=3).tolist()
            neg = rng.uniform(0.5, 1.8, size=3).tolist()
            wp = rng.integers(0, 20, size=3).tolist()
            wn = rng.integers(0, 20, size=3).tolist()
            table = self.make_table(pos, neg, wp, wn)
            once = monotone_project(table)
            twice = monotone_project(once)
            assert np.array_equal(once.factors, twice.factors)
            # count-weighted branch means preserved
            for sign, raw_vals, wts in ((1, pos, wp), (-1, neg, wn)):
                cells = [sign * (i + 1) for i in range(3)]
                before = sum(v * w for v, w in zip(raw_vals, wts))
                after = sum(once.factor(1, s) * w for s, w in zip(cells, wts))
                assert after == pytest.approx(before, abs=1e-9)

    def test_branch_monotonicity_holds_cell_by_cell(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = self.make_table(rng.uniform(0.3, 2.0, 3).tolist(),
                                    rng.uniform(0.3, 2.0, 3).tolist(),
                                    rng.integers(0, 9, 3).tolist(),
                                    rng.integers(0, 9, 3).tolist())
            out = monotone_project(table)
            assert out.factor(1, 0) == 1.0
            for s in (1, 2):
                assert out.factor(1, s + 1) >= out.factor(1, s)
            for s in (-1, -2):
                assert out.factor(1, s - 1) <= out.factor(1, s)

    def test_matches_pav_oracle_per_branch(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0.5, 1.5, 3).tolist()
        neg = rng.uniform(0.5, 1.5, 3).tolist()
        wp = [3, 1, 2]
        wn = [2, 0, 5]
        out = monotone_project(self.make_table(pos, neg, wp, wn))
        assert [out.factor(1, s) for s in (1, 2, 3)] == pav_oracle(pos, wp)
        want_neg = pav_oracle(neg, wn, increasing=False)
        assert [out.factor(1, s) for s in (-1, -2, -3)] == want_neg


class TestApplyKappa:
    def make_table(self, value):
        factors = np.ones((1, 5))
        factors[0, 4] = value  # streak +2 with bounds (-2, 2)
        return FactorTable(bounds=(-2, 2), types=(1,),
                           factors=factors, counts=np.zeros((1, 5), dtype=np.int64))

    def test_shrinks_toward_one(self):
        out = apply_kappa(self.make_table(1.6), 0.25)
        assert out.factor(1, 2) == pytest.approx(1.15)

    def test_zero_neutralizes_table(self):
        out = apply_kappa(self.make_table(1.6), 0.0)
        assert np.all(out.factors == 1.0)

    def test_one_is_identity(self):
        table = self.make_table(1.6)
        out = apply_kappa(table, 1.0)
        assert np.array_equal(out.factors, table.factors)

    def test_affine_in_kappa(self):
        # deviation after k1 rescaled by k2/k1 equals applying k2 directly
        table = self.make_table(1.7)
        k1, k2 = 0.6, 0.3
        via_k1 = apply_kappa(table, k1)
        rescaled = (via_k1.factors - 1.0) * (k2 / k1) + 1.0
        direct = apply_kappa(table, k2)
        assert np.allclose(rescaled, direct.factors, atol=1e-12)

    def test_rejects_kappa_outside_unit_interval(self):
        with pytest.raises(ValueError):
            apply_kappa(self.make_table(1.2), 1.5)


class TestSummarizeTypes:
    def test_mean_of_calibrated_scores(self):
        cmap = CalibrationMap(breakpoints=(0.0, 0.5), values=(0.2, 0.4))
        records = [rec(score=0.1), rec(score=0.7)]  # calibrate to 0.2, 0.4
        mean_open = summarize_types(columns(records), cmap)
        assert mean_open[1] == pytest.approx(0.3)

    def test_identity_calibration_uses_raw_scores(self):
        records = [rec(score=0.1)] * 3
        mean_open = summarize_types(columns(records), None)
        assert mean_open[1] == pytest.approx(0.1)

    def test_types_are_those_the_records_hold_in_ascending_order(self):
        records = [rec(utype=5, score=0.2), rec(utype=2, score=0.4), rec(utype=5, score=0.4)]
        mean_open = summarize_types(columns(records))
        assert list(mean_open) == [2, 5]
        assert mean_open == pytest.approx({2: 0.4, 5: 0.3})

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize_types(columns([]))


def test_column_sums_equal_a_loop_over_the_records():
    """estimate_factors and summarize_types add in record order, so every
    factor, count and mean equals a plain loop's bit for bit."""
    rng = np.random.default_rng(8)
    records = [rec(uid=f"u{rng.integers(0, 400)}", utype=int(rng.integers(1, 7)),
                   streak=int(rng.integers(-4, 5)), outcome=int(rng.random() < 0.3),
                   baseline=float(rng.uniform(0.01, 0.6)), score=float(rng.random()))
               for _ in range(6000)]
    cmap = CalibrationMap(breakpoints=tuple(np.linspace(0.0, 0.9, 40).tolist()),
                          values=tuple(np.linspace(0.02, 0.8, 40).tolist()))
    opens, expected, counts, score_sum, score_n = {}, {}, {}, {}, {}
    for r in records:
        cell = (r.user_type, r.streak)
        opens[cell] = opens.get(cell, 0.0) + r.outcome
        expected[cell] = expected.get(cell, 0.0) + r.baseline_rate
        counts[cell] = counts.get(cell, 0) + 1
        score_sum[r.user_type] = score_sum.get(r.user_type, 0.0) \
            + apply_calibration(cmap, r.raw_score)
        score_n[r.user_type] = score_n.get(r.user_type, 0) + 1

    table = estimate_factors(columns(records, bounds=(-4, 4)))
    for (c, s), n in counts.items():
        assert table.count(c, s) == n
        if s != 0:
            assert table.factor(c, s) == max(opens[c, s] / expected[c, s], 1e-12)
    mean_open = summarize_types(columns(records), cmap)
    for c in range(1, 7):
        assert mean_open[c] == score_sum[c] / score_n[c]


class TestBehaviorModel:
    def test_fit_pipeline_round_trips_through_json(self):
        rng = np.random.default_rng(3)
        records = []
        for utype in range(1, 7):
            for i in range(50):
                records.append(rec(uid=f"u{utype}_{i % 7}", utype=utype,
                                   streak=int(rng.integers(-3, 4)),
                                   outcome=int(rng.random() < 0.4),
                                   baseline=0.4, score=float(rng.random())))
        model = fit_behavior_model(columns(records, bounds=(-5, 5)), kappa=0.3)
        loaded = type(model).from_dict(json.loads(json.dumps(model.to_dict())))
        assert np.array_equal(loaded.factors.factors, model.factors.factors)
        assert loaded.type_mean_open == model.type_mean_open

    def test_model_takes_the_bounds_and_types_of_its_records(self):
        # two users of types 2 and 5, each with runs longer than 4 in the second half
        outcomes = [1, 0] * 5 + [1] * 6 + [0] * 4
        log = log_from_rows(["a"] * 20 + ["b"] * 20, [2] * 20 + [5] * 20, list(range(40)),
                            [0.5] * 40, outcomes + outcomes[::-1])
        model = fit_behavior_model(build_dataset(log, min_samples=1, bounds=(-4, 4)), kappa=0.4)
        assert model.factors.bounds == (-4, 4)
        assert model.types == (2, 5)
        assert sorted(model.type_mean_open) == [2, 5]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_factor_table_rejects_non_finite_or_non_positive_factors(self, bad):
        doc = make_model({}, 0.3, (-2, 2)).factors.to_dict()
        doc["factors"]["1"][3] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            FactorTable.from_dict(doc)

    @pytest.mark.parametrize("bad", [-0.4, 1.5, float("nan")])
    def test_rejects_mean_open_outside_unit_interval(self, bad):
        doc = make_model({}, 0.3, (-2, 2)).to_dict()
        doc["type_mean_open"]["1"] = bad
        with pytest.raises(ValueError):
            BehaviorModel.from_dict(doc)

    def test_projection_applied_before_kappa(self):
        # one noisy positive branch; after fit, branch must be monotone and
        # kappa-scaled relative to the projected (not raw) values
        records = []
        for i, (streak, outcome) in enumerate([(1, 1), (2, 0), (1, 1), (2, 0)]):
            records.append(rec(uid=f"u{i}", streak=streak, outcome=outcome, baseline=0.5))
        model = fit_behavior_model(columns(records, bounds=(-2, 2)), kappa=0.5)
        f1, f2 = model.factors.factor(1, 1), model.factors.factor(1, 2)
        assert f2 >= f1 or abs(f2 - f1) < 1e-12
