"""Synthetic population determinism, pass mechanics, and harness metrics."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest
from check_ci import arm_differences
from hypothesis import example, given, settings, strategies as st
from oracles import (ramp_factor_oracle, run_experiment_oracle, simulate_columns_oracle,
                     streak_oracle, threshold_cells, warmup_events_oracle)

from notif_ltv import (
    NEVER_SEND,
    NO_FILTER,
    CalibrationMap,
    HeuristicThresholds,
    PolicyTable,
    SendLimitConfig,
    SimConfig,
    Treatment,
    apply_calibration,
    fit_isotonic,
    fit_sim_calibration,
    ramp_factor_table,
    run_experiment,
    score_thresholds,
    simulate_pass,
    warmup_events,
)
from notif_ltv import sim
from notif_ltv.sim import BlockState, UserBlock


def small_config(**overrides):
    types = (1, 2)
    base = dict(
        num_users=40,
        days=4,
        passes_per_day=2,
        type_shares={1: 0.5, 2: 0.5},
        baseline_beta={1: (4.0, 6.0), 2: (2.0, 8.0)},
        score_noise={1: 0.5, 2: 0.5},
        true_factors=ramp_factor_table((-4, 4), {1: (0.7, 1.2), 2: (0.8, 1.1)}),
        kappa_true=0.5,
        send_limits=SendLimitConfig(limits={1: 2, 2: 2}),
        master_seed=123,
    )
    base.update(overrides)
    return SimConfig(**base)


def draw_population(cfg):
    """Every user's draws for a run of cfg.days, as one block in user-index
    order: the block the simulation loop draws when they fit in one."""
    return sim._draw_block(cfg, 0, cfg.num_users, cfg.days * cfg.passes_per_day,
                           sim._LATENT, sim._POLICY)


def identity_map():
    return CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))


def same_block(a, b):
    """Whether two UserBlocks hold equal columns."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def rows(log):
    """A SendLog's rows in order, as (user_id, user_type, timestamp,
    raw_score, outcome) tuples."""
    return list(zip([log.users[u] for u in log.user.tolist()], log.user_type.tolist(),
                    log.timestamp.tolist(), log.raw_score.tolist(), log.outcome.tolist()))


class TestRampFactorTable:
    def test_endpoints_and_center(self):
        table = ramp_factor_table((-4, 4), {1: (0.6, 1.4)})
        assert table.at(table.factors, 1, -4) == pytest.approx(0.6)
        assert table.at(table.factors, 1, 4) == pytest.approx(1.4)
        assert table.at(table.factors, 1, 0) == 1.0

    def test_branches_are_monotone(self):
        table = ramp_factor_table((-5, 5), {1: (0.5, 1.5)})
        vals = [table.at(table.factors, 1, s) for s in range(-5, 6)]
        assert vals == sorted(vals)

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(-40, -1), hi=st.integers(1, 40),
           ramps=st.dictionaries(st.integers(1, 6), st.tuples(
               *[st.floats(0.05, 3.0, exclude_min=True)] * 2), max_size=6))
    @example(lo=-1, hi=1, ramps={})
    @example(lo=-7, hi=3, ramps={2: (0.4, 1.6), 5: (1.3, 0.7)})
    def test_matches_cell_by_cell_oracle(self, lo, hi, ramps):
        """Bit for bit, on asymmetric bounds, ends below and above 1 and an
        empty ramp map."""
        table = ramp_factor_table((lo, hi), ramps)
        assert table.types == tuple(sorted(ramps))
        assert table.factors.tobytes() == ramp_factor_oracle((lo, hi), ramps).tobytes()


class TestGeneratePopulation:
    def test_same_seed_same_population(self):
        cfg = small_config()
        assert same_block(draw_population(cfg), draw_population(cfg))

    def test_different_seed_differs(self):
        a = draw_population(small_config(master_seed=1))
        b = draw_population(small_config(master_seed=2))
        assert not same_block(a, b)

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            small_config(num_users=0)

    @pytest.mark.parametrize("key", ["num_users", "days", "passes_per_day",
                                     "calibration_days", "master_seed"])
    def test_from_dict_rejects_fractional_integer_fields(self, key):
        doc = small_config().to_dict()
        doc[key] = 2.5
        with pytest.raises(ValueError, match=key):
            SimConfig.from_dict(doc)
        doc[key] = 3.0
        assert getattr(SimConfig.from_dict(doc), key) == 3

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            small_config(master_seed=-1)

    def test_num_users_beyond_one_seed_word_rejected(self):
        with pytest.raises(ValueError, match="num_users must be <= 2\\*\\*32"):
            small_config(num_users=2**32 + 1)

    @pytest.mark.parametrize("days, passes_per_day, calibration_days, valid", [
        (87381, 1, 2, True), (87382, 1, 2, False), (1, 1, 87382, False),
        (1, 86400, 1, True), (1, 86401, 1, False)])
    def test_horizon_bounded_by_one_block_and_a_second_a_pass(self, days, passes_per_day,
                                                              calibration_days, valid):
        # one user's draws, 24 bytes a pass, fit BLOCK_BYTES at 87,381 passes
        assert sim.BLOCK_BYTES // 24 == 87381
        kwargs = dict(days=days, passes_per_day=passes_per_day,
                      calibration_days=calibration_days)
        if valid:
            assert small_config(**kwargs).days == days
        else:
            with pytest.raises(ValueError, match=r"max\(days, calibration_days\) \* "
                                                 r"passes_per_day <= 87381$"):
                small_config(**kwargs)

    @pytest.mark.parametrize("overrides, message", [
        (dict(days=0), "days, passes_per_day and calibration_days must be >= 1"),
        (dict(passes_per_day=0), "days, passes_per_day and calibration_days must be >= 1"),
        (dict(calibration_days=0), "days, passes_per_day and calibration_days must be >= 1"),
        (dict(kappa_true=1.5), "kappa_true must be in [0, 1], got 1.5"),
        (dict(kappa_true=-0.25), "kappa_true must be in [0, 1], got -0.25"),
        (dict(gamma=1.0), "gamma must be in [0, 1), got 1.0"),
        (dict(gamma=-0.5), "gamma must be in [0, 1), got -0.5"),
        (dict(churn_rate=1.5), "churn_rate must be in [0, 1], got 1.5"),
        (dict(churn_rate=-0.25), "churn_rate must be in [0, 1], got -0.25"),
        (dict(type_shares={1: 0.5, 2: 0.25}),
         "type_shares must be non-negative and sum to 1, got 0.75"),
        (dict(type_shares={1: 1.5, 2: -0.5}),
         "type_shares must be non-negative and sum to 1, got 1.0"),
    ])
    def test_out_of_range_setting_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)

    @pytest.mark.parametrize("name, value", [
        ("type_shares", {1: 1.0}), ("baseline_beta", {1: (4.0, 6.0)}),
        ("score_noise", {1: 0.5}), ("send_limits", SendLimitConfig(limits={1: 2}))])
    def test_per_type_map_lacking_a_type_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} has no entry for user type 2$"):
            small_config(**{name: value})

    def test_share_for_a_type_without_true_factors_rejected(self):
        with pytest.raises(ValueError, match="user type 3 a share of 0.5"):
            small_config(type_shares={1: 0.5, 2: 0.0, 3: 0.5})
        # a type with no share is never drawn
        small_config(type_shares={1: 0.5, 2: 0.5, 3: 0.0})

    def test_degenerate_share_assigns_single_type(self):
        cfg = small_config(type_shares={1: 1.0, 2: 0.0})
        assert set(draw_population(cfg).user_type.tolist()) == {1}

    def test_draw_past_the_last_share_takes_the_last_type_with_a_share(self, monkeypatch):
        """Shares need sum to 1 only within 1e-9, so a draw can reach past
        the last cumulative share, as the patched search says every draw
        does here; it must not give a type whose share is 0."""
        monkeypatch.setattr(sim, "bisect_right", lambda a, x: len(a))
        cfg = small_config(type_shares={1: 1.0, 2: 0.0})
        assert set(draw_population(cfg).user_type.tolist()) == {1}

    def test_baselines_inside_open_interval(self):
        baseline = draw_population(small_config()).baseline
        assert ((0.0 < baseline) & (baseline < 1.0)).all()

    @pytest.mark.parametrize("beta", [(0.0, 2.0), (2.0, -1.0), (float("nan"), 2.0),
                                      (2.0, float("inf"))])
    def test_baseline_beta_must_be_finite_and_positive(self, beta):
        with pytest.raises(ValueError, match="baseline_beta for user type 2"):
            small_config(baseline_beta={1: (4.0, 6.0), 2: beta})

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_score_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="score_noise for user type 2"):
            small_config(score_noise={1: 0.5, 2: noise})

    def test_zero_score_noise_accepted(self):
        cfg = small_config(score_noise={1: 0.0, 2: 0.0})
        block = draw_population(cfg)
        scores = sim._logistic(block.logits)
        want = np.broadcast_to(block.baseline[:, None], scores.shape)
        np.testing.assert_allclose(scores, want, rtol=1e-12)


class TestSeedStates:
    """The per-user seeds are numpy's SeedSequence([master_seed, i, salt])
    state, computed for a whole block of indices at once."""

    INDEX = np.concatenate([np.arange(50), [2**32 - 1],
                            np.random.default_rng(5).integers(0, 2**32, 30)])

    # one to four 32-bit words of master seed
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**100 + 3])
    @pytest.mark.parametrize("salt", [sim._LATENT, sim._POLICY, sim._WARMUP_LATENT,
                                      sim._WARMUP_POLICY])
    def test_matches_numpy_seed_sequence(self, seed, salt):
        got = sim._seed_states(seed, self.INDEX, salt)
        want = np.array([np.random.SeedSequence([seed, i, salt]).generate_state(4, np.uint64)
                         for i in self.INDEX.tolist()])
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed, row", [(0, 0), (123, 7), (2**64 + 7, 50), (2**100 + 3, 60)])
    def test_generator_streams_match_default_rng(self, seed, row):
        state = sim._seed_states(seed, self.INDEX, sim._POLICY)[row]
        got = np.random.Generator(np.random.PCG64(sim._seed_state_type()(state)))
        want = np.random.default_rng(
            np.random.SeedSequence([seed, int(self.INDEX[row]), sim._POLICY]))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random() == want.random()
        assert got.beta(0.7, 5.6) == want.beta(0.7, 5.6)
        np.testing.assert_array_equal(got.standard_normal(9), want.standard_normal(9))


class TestSimulatePass:
    def run_pass(self, table, cfg, *, streak=0, sends_today=0, limit=5):
        """One pass of a one-user block (type 1, baseline 0.4)."""
        # logit 0 is a score of 0.5
        block = UserBlock(index=np.array([0]), rows=np.array([0]), user_type=np.array([1]),
                          baseline=np.array([0.4]), logits=np.array([[0.0]]),
                          uniforms=np.random.default_rng(7).random((1, 2)))
        state = BlockState.start(block, np.array([[limit]]), [table], identity_map(),
                                 cfg.true_factors)
        state.streak[:] = streak
        state.sends_today[:] = sends_today
        sent, opened = simulate_pass(state, 0, churn_rate=cfg.churn_rate)
        return state, sent, opened

    def test_no_filter_under_limit_always_sends(self):
        cfg = small_config()
        state, sent, _ = self.run_pass(NO_FILTER, cfg)
        assert sent.tolist() == [0]
        assert state.sends_today[0] == 1

    def test_at_limit_no_event_and_streak_unchanged(self):
        cfg = small_config()
        state, sent, _ = self.run_pass(NO_FILTER, cfg, streak=3, sends_today=5, limit=5)
        assert sent.size == 0
        assert state.streak[0] == 3
        assert state.sends_today[0] == 5

    def test_arm_at_its_limit_does_not_move(self):
        """Two arms over two users in one pass: arm 1 is at its limit, so it
        keeps its streaks and cursors and only arm 0's flat indices send."""
        cfg = small_config()
        block = UserBlock(index=np.array([0, 1]), rows=np.array([0, 1]),
                          user_type=np.array([1, 2]), baseline=np.array([0.4, 0.3]),
                          logits=np.array([[0.0], [0.0]]),
                          uniforms=np.random.default_rng(7).random((2, 2)))
        state = BlockState.start(block, np.array([[2, 2], [2, 2]]), [NO_FILTER, NO_FILTER],
                                 identity_map(), cfg.true_factors)
        state.streak[:] = [[1, -1], [3, -2]]
        state.sends_today[1] = 2
        # each cursor starts at its user's first uniform in the flat stream
        start = state.cursor.copy()
        assert start.tolist() == [[0, 2], [0, 2]]
        sent, opened = simulate_pass(state, 0, churn_rate=0.5)
        assert sent.tolist() == [0, 1]
        assert len(opened) == 2
        assert state.streak[1].tolist() == [3, -2]
        assert state.cursor[1].tolist() == start[1].tolist()
        assert state.sends_today.tolist() == [[1, 1], [2, 2]]
        assert (state.cursor[0] - start[0]).tolist() == [1 if o else 2 for o in opened.tolist()]

    def test_outcome_advances_streak(self):
        cfg = small_config()
        state, _, opened = self.run_pass(NO_FILTER, cfg, streak=-2)
        if opened[0]:
            assert state.streak[0] == 1
        else:
            assert state.streak[0] == -3

    def test_neutral_kappa_true_means_baseline_open_rate(self):
        # with kappa_true=0 the effective factor table is all ones, so the
        # empirical open rate must track the raw baseline for any streak
        cfg = small_config(kappa_true=0.0, num_users=1, days=400,
                           passes_per_day=2, type_shares={1: 1.0, 2: 0.0},
                           baseline_beta={1: (5000.0, 5000.0), 2: (1.0, 1.0)})
        report = run_experiment(
            cfg, [Treatment("all", NO_FILTER, baseline=True)],
            calibration=identity_map(), keep_events=True)
        events = report.events["all"]
        opens = int(events.outcome.sum())
        n = len(events)
        se = np.sqrt(0.5 * 0.5 / n)
        assert abs(opens / n - 0.5) < 4 * se


# a table threshold: either zero, the top of [0, 1], anything in it, or never
THRESHOLDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, NEVER_SEND]), st.floats(0, 1))


class TestSendThresholds:
    """A block looks up every arm's table once, for the types it holds."""

    TYPES = (1, 2)
    BOUNDS = (-4, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_holds_each_arms_thresholds(self, data):
        """A block's threshold array holds each arm's threshold, mapped to the
        least raw score that reaches it, at every (type, streak) cell of a
        type the block holds, and NEVER_SEND in the rows of the others; a
        pass sends where the calibrated score reaches the arm's threshold,
        and none at the limit. The map's breakpoints may sit on the block's
        exact scores, so ties reach the exact fallback."""
        ks = HeuristicThresholds(by_type={c: data.draw(THRESHOLDS.filter(lambda v: v <= 1.0))
                                          for c in self.TYPES})
        cells = data.draw(st.lists(THRESHOLDS, min_size=10, max_size=10))
        # narrower than the simulator's bounds, so lookups clamp streaks
        table = PolicyTable(bounds=(-2, 2), types=self.TYPES,
                            thresholds=np.array(cells).reshape(2, 5))
        tables = [ks.table, NO_FILTER, table]
        rows = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6)))
        n = len(rows)
        # logits beyond about 709 in size give scores of exactly 0 and 1
        logits = data.draw(st.lists(st.one_of(st.floats(-40, 40), st.sampled_from([-800.0, 800.0])),
                                    min_size=n, max_size=n))
        block = UserBlock(index=np.arange(n), rows=rows, user_type=np.array(self.TYPES)[rows],
                          baseline=np.full(n, 0.3), logits=np.array(logits)[:, None],
                          uniforms=np.zeros((n, 2)))
        scores = sim._logistic(block.logits)[:, 0]
        bps = sorted(set(data.draw(st.lists(st.one_of(st.sampled_from(scores.tolist()),
                                                      st.floats(0, 1)), min_size=1, max_size=5))))
        vals = sorted(data.draw(st.lists(st.one_of(st.just(-0.0), st.floats(0, 1)),
                                         min_size=len(bps), max_size=len(bps))))
        cmap = CalibrationMap(breakpoints=tuple(bps), values=tuple(vals))
        truth = ramp_factor_table(self.BOUNDS, {c: (1.0, 1.0) for c in self.TYPES})
        state = BlockState.start(block, np.ones((len(tables), n), dtype=np.int64), tables, cmap,
                                 truth)

        lo, hi = self.BOUNDS
        got = state.thresholds.reshape(len(tables), len(self.TYPES), hi - lo + 1)
        calibrated = np.full(got.shape, NEVER_SEND)
        for arm, t in enumerate(tables):
            want = threshold_cells(t)
            tlo, thi = t.bounds
            for row, c in enumerate(self.TYPES):
                if row not in rows:
                    assert (got[arm, row] == NEVER_SEND).all()
                    continue
                calibrated[arm, row] = [want[c, min(max(s, tlo), thi)] for s in range(lo, hi + 1)]
                assert got[arm, row].tolist() == \
                    score_thresholds(cmap, calibrated[arm, row]).tolist(), (arm, row)

        # every streak starts at 0
        sent, _ = simulate_pass(state, 0, churn_rate=0.0)
        reach = apply_calibration(cmap, scores) >= calibrated[:, rows, -lo]
        assert sent.tolist() == np.flatnonzero(reach).tolist()
        state.sends_today[:] = state.effective_limit
        sent, _ = simulate_pass(state, 0, churn_rate=0.0)
        assert sent.size == 0

    def test_only_types_a_block_holds_are_looked_up(self):
        """A heuristic without a cutoff for a type that has no share runs; one
        without a cutoff for a drawn type raises KeyError, as its lookup does."""
        ks = HeuristicThresholds(by_type={1: 0.2})
        treatment = Treatment("h", ks.table, baseline=True)
        cfg = small_config(type_shares={1: 1.0, 2: 0.0})
        assert run_experiment(cfg, [treatment]).result("h").total_sends > 0
        with pytest.raises(KeyError, match=r"no entry for user type\(s\) \[2\]"):
            run_experiment(small_config(), [treatment], identity_map())


class TestExactFallback:
    """A pass decides on np.exp's approximate scores and recomputes the exact
    math.exp score only where the approximation lies within sim._NEAR of a
    raw threshold; every decision is the exact score's."""

    def test_nudged_approximation_still_decides_by_the_exact_score(self):
        """Arm 0's raw threshold is a user's exact score s and arm 1's the
        next float above it. Nudging the approximate score below s, then
        above the next float, by less than the margin moves no decision;
        outside the margin the approximation decides alone, which is why the
        margin must exceed the gap between np.exp and math.exp."""
        cfg = small_config()
        block = UserBlock(index=np.array([0]), rows=np.array([0]), user_type=np.array([1]),
                          baseline=np.array([0.4]), logits=np.full((1, 3), 0.3),
                          uniforms=np.random.default_rng(7).random((1, 6)))
        s = float(sim._logistic(block.logits)[0, 0])
        cmap = CalibrationMap(breakpoints=(0.0, s, np.nextafter(s, 1.0)), values=(0.0, 0.5, 1.0))
        tables = [PolicyTable(bounds=cfg.true_factors.bounds, types=(1, 2),
                              thresholds=np.full((2, 9), v)) for v in (0.5, 1.0)]
        state = BlockState.start(block, np.full((2, 1), 5), tables, cmap, cfg.true_factors)
        assert state.thresholds.reshape(2, 2, 9)[:, 0].tolist() == \
            [[s] * 9, [np.nextafter(s, 1.0)] * 9]
        assert 2.0 ** -32 < sim._NEAR < 2.0 ** -29
        state.scores[:, 0] = s - 2.0 ** -32, s + 2.0 ** -32, s - 2.0 ** -29
        assert [simulate_pass(state, t, churn_rate=0.0)[0].tolist() for t in range(3)] == \
            [[0], [0], []]

    def test_ties_on_breakpoints_match_scalar_oracle(self, monkeypatch):
        """The map's breakpoints are exact scores the main run draws, and
        every arm's raw thresholds are breakpoints. For each type, one user's
        first-pass approximation misses its exact score, and a breakpoint
        sits between the two, on the streak-0 cell's threshold: a pass that
        trusted the approximation would decide that user-pass the other way.
        Reports and kept sends equal the oracle's."""
        cfg = small_config(num_users=300, days=3, passes_per_day=3, churn_rate=0.1)
        population = draw_population(cfg)
        scores = sim._logistic(population.logits)
        exact = scores[:, 0]
        approx = 1.0 / (1.0 + np.exp(-population.logits[:, 0]))
        traps = []
        for c in (1, 2):
            j = np.flatnonzero((population.user_type == c) & (approx != exact))[0]
            traps.append(exact[j] if approx[j] < exact[j] else np.nextafter(exact[j], 1.0))
        bps = np.unique(np.concatenate([traps, scores[::7].ravel()]))
        values = np.linspace(0.0, 1.0, len(bps))
        cmap = CalibrationMap(breakpoints=tuple(bps.tolist()), values=tuple(values.tolist()))
        cells = np.random.default_rng(3).choice(values, size=(2, 5))
        cells[:, 2] = values[np.searchsorted(bps, traps)]  # streak 0
        table = PolicyTable(bounds=(-2, 2), types=(1, 2), thresholds=cells)
        ks = HeuristicThresholds(by_type={1: float(values[5]), 2: float(values[9])})
        treatments = [Treatment("heuristic", ks.table, baseline=True),
                      Treatment("no_filter_minus1", NO_FILTER, limit_adjustment=-1),
                      Treatment("rl", table)]
        rules = [dict(cutoffs=ks.by_type), {},
                 dict(cells=threshold_cells(table), bounds=table.bounds)]

        exact = []
        logistic = sim._logistic

        def spy(logits):
            exact.append(np.size(logits))
            return logistic(logits)

        monkeypatch.setattr(sim, "_logistic", spy)
        report = run_experiment(cfg, treatments, cmap)
        assert sum(exact) > 0  # only the fallback computes exact scores here
        report = run_experiment(cfg, treatments, cmap, keep_events=True)
        want = run_experiment_oracle(cfg, treatments, rules, cmap, keep_events=True)
        assert report.to_dict() == want.to_dict()
        assert report.max_daily_sends == want.max_daily_sends
        for name, log in report.events.items():
            assert rows(log) == want.events[name], name


def assert_matches_scalar_oracle(cfg):
    """The warm-up, the calibration, and the report and kept sends of a
    heuristic and a no_filter arm equal the scalar oracle's on cfg; returns
    the report."""
    warmup = warmup_events_oracle(cfg)
    assert rows(warmup_events(cfg)) == warmup
    calibration = fit_sim_calibration(cfg)
    assert calibration == fit_isotonic([e.raw_score for e in warmup],
                                       [e.outcome for e in warmup])
    ks = HeuristicThresholds(by_type={1: 0.2, 2: 0.35})
    treatments = [Treatment("heuristic", ks.table, baseline=True),
                  Treatment("no_filter", NO_FILTER)]
    report = run_experiment(cfg, treatments, calibration, keep_events=True)
    want = run_experiment_oracle(cfg, treatments, [dict(cutoffs=ks.by_type), {}], calibration,
                                 keep_events=True)
    assert report.to_dict() == want.to_dict()
    for name, log in report.events.items():
        assert rows(log) == want.events[name], name
    return report


@pytest.mark.parametrize("noise", [1000.0, 1e308])
def test_huge_score_noise_matches_scalar_oracle(noise):
    """With a huge score noise the logits run past the range of math.exp,
    and at 1e308 past the largest float to infinity; where exp(-logit)
    overflows the score is 0.0, and the warm-up, the calibration, the
    report and the kept sends equal the oracle's."""
    assert sim._logistic(np.array([-800.0, 800.0, 0.0, -np.inf, np.inf])).tolist() == \
        [0.0, 1.0, 0.5, 0.0, 1.0]
    cfg = small_config(num_users=50, days=3, passes_per_day=3, churn_rate=0.1,
                       score_noise={1: noise, 2: noise})
    assert (draw_population(cfg).logits < -710).any()
    report = assert_matches_scalar_oracle(cfg)
    assert 0.0 in report.events["no_filter"].raw_score.tolist()


def test_clamped_baselines_match_scalar_oracle():
    """Beta shapes far below 1 draw baselines at or past both ends of the
    clamp [1e-6, 1 - 1e-6], which the block applies after its draws and the
    oracle to each user's draw; the warm-up, the calibration, the report and
    the kept sends equal the oracle's."""
    cfg = small_config(num_users=50, days=3, passes_per_day=3, churn_rate=0.1,
                       baseline_beta={1: (0.02, 0.02), 2: (0.05, 3.0)})
    baseline = draw_population(cfg).baseline
    assert (baseline == 1e-6).any() and (baseline == 1.0 - 1e-6).any()
    assert_matches_scalar_oracle(cfg)


class TestRunExperiment:
    def test_counts_under_always_send(self):
        cfg = small_config(num_users=2, days=5, passes_per_day=1,
                           send_limits=SendLimitConfig(limits={1: 3, 2: 3}))
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").total_sends == 10

    def test_identical_treatments_have_zero_deltas(self):
        cfg = small_config()
        report = run_experiment(
            cfg,
            [Treatment("a", NO_FILTER, baseline=True),
             Treatment("b", NO_FILTER)],
            calibration=identity_map())
        deltas = report.deltas("b")
        assert all(v == 0.0 for v in deltas.values())
        ra, rb = report.result("a"), report.result("b")
        assert (ra.total_sends, ra.total_opens) == (rb.total_sends, rb.total_opens)
        assert ra.discounted_opens == rb.discounted_opens

    def test_duplicate_names_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(cfg, [Treatment("x", NO_FILTER, baseline=True),
                                 Treatment("x", NO_FILTER)],
                           calibration=identity_map())

    def test_exactly_one_baseline_required(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="baseline"):
            run_experiment(cfg, [Treatment("a", NO_FILTER),
                                 Treatment("b", NO_FILTER)],
                           calibration=identity_map())

    @pytest.mark.parametrize("name", ["missing", "A", ""])
    def test_result_of_an_unknown_name_is_key_error(self, name):
        report = run_experiment(small_config(num_users=2),
                                [Treatment("a", NO_FILTER, baseline=True)],
                                calibration=identity_map())
        with pytest.raises(KeyError) as caught:
            report.result(name)
        assert caught.value.args == (f"no treatment named {name!r}",)

    def test_opens_never_exceed_sends_and_rates_consistent(self):
        cfg = small_config()
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map())
        r = report.result("nf")
        assert r.total_opens <= r.total_sends
        assert r.open_rate == pytest.approx(r.total_opens / r.total_sends)

    def test_no_churn_means_full_reachability(self):
        cfg = small_config(churn_rate=0.0)
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").reachability_proxy == 1.0

    def test_churn_reduces_reachability(self):
        cfg = small_config(churn_rate=0.2, num_users=100, days=6)
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").reachability_proxy < 1.0

    def test_send_limit_never_exceeded_per_user_day(self):
        cfg = small_config(passes_per_day=4,
                           send_limits=SendLimitConfig(limits={1: 2, 2: 1}))
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map(), keep_events=True)
        limits = {1: 2, 2: 1}
        per_day = {}
        log = report.events["nf"]
        for user, user_type, timestamp in zip(log.user.tolist(), log.user_type.tolist(),
                                              log.timestamp.tolist()):
            key = (user, timestamp // 86400)
            per_day[key] = per_day.get(key, 0) + 1
            assert per_day[key] <= limits[user_type]


class TestStreakConditionalOpenRates:
    def test_open_rate_per_streak_matches_ground_truth(self):
        """Users share one near-constant baseline; the empirical open rate
        in each visited streak state must converge to the kappa-scaled
        factor times that baseline."""
        table = ramp_factor_table((-3, 3), {1: (0.6, 1.3)})
        cfg = small_config(num_users=150, days=60, passes_per_day=2,
                           type_shares={1: 1.0, 2: 0.0},
                           baseline_beta={1: (8000.0, 8000.0), 2: (1.0, 1.0)},
                           true_factors=table, kappa_true=0.5,
                           send_limits=SendLimitConfig(limits={1: 2, 2: 2}),
                           master_seed=77)
        report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                                calibration=identity_map(), keep_events=True)
        # replay per-user streak trajectories to attribute events to states
        log = report.events["nf"]
        by_user = {}
        for user, timestamp, outcome in zip(log.user.tolist(), log.timestamp.tolist(),
                                            log.outcome.tolist()):
            by_user.setdefault(user, []).append((timestamp, outcome))
        counts = {}
        opens = {}
        for events in by_user.values():
            s = 0
            for _, outcome in sorted(events, key=lambda e: e[0]):
                counts[s] = counts.get(s, 0) + 1
                opens[s] = opens.get(s, 0) + outcome
                s = streak_oracle(s, outcome, (-3, 3))
        checked = 0
        for s, n in counts.items():
            if n < 400:
                continue
            f_eff = (table.at(table.factors, 1, s) - 1.0) * 0.5 + 1.0
            want = min(f_eff * 0.5, 1.0)
            got = opens[s] / n
            sigma = np.sqrt(want * (1 - want) / n)
            assert abs(got - want) < 3.5 * sigma, f"streak {s}: {got} vs {want}"
            checked += 1
        assert checked >= 4


def test_fit_sim_calibration_is_monotone_and_deterministic():
    cfg = small_config(num_users=200, calibration_days=2)
    c1 = fit_sim_calibration(cfg)
    c2 = fit_sim_calibration(cfg)
    assert c1 == c2
    assert all(b >= a for a, b in zip(c1.values, c1.values[1:]))


def test_warm_up_runs_through_warmup_events(monkeypatch):
    """The module-level name is the one entry point, as a tracer wrapping it
    sees: an experiment without a calibration calls it once, and the fitted
    map is the fit on its log's columns."""
    cfg = small_config(num_users=120)
    logs = []

    def spy(config):
        logs.append(warmup_events(config))
        return logs[-1]

    monkeypatch.setattr(sim, "warmup_events", spy)
    run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)])
    assert len(logs) == 1
    assert fit_sim_calibration(cfg) == fit_isotonic(logs[-1].raw_score, logs[-1].outcome)
    assert len(logs) == 2


def test_events_round_trip_through_ingest_format(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg, [Treatment("nf", NO_FILTER, baseline=True)],
                            calibration=identity_map(), keep_events=True)
    log = report.events["nf"]
    path = tmp_path / "events.jsonl"
    path.write_text(log.to_jsonl())
    from notif_ltv import read_log
    back = read_log(path)
    assert len(back) == len(log) > 0
    assert back.users == log.users
    for name in ("user", "user_type", "timestamp", "raw_score", "outcome"):
        got, want = getattr(back, name), getattr(log, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_report_table_and_csv_render():
    cfg = small_config()
    report = run_experiment(
        cfg,
        [Treatment("base", NO_FILTER, baseline=True),
         Treatment("plus_one", NO_FILTER, limit_adjustment=1)],
        calibration=identity_map())
    table = report.to_table_text()
    assert "Treatment" in table and "base" in table and "plus_one" in table
    csv_text = report.to_per_type_csv()
    assert csv_text.startswith("treatment,user_type,sends,opens")
    assert len(csv_text.strip().split("\n")) == 1 + 2 * 2  # two treatments x two types


@pytest.mark.parametrize("budget", [sim.BLOCK_BYTES, 24 * 12 * 40])
def test_arms_do_not_interact(monkeypatch, budget):
    """Every arm of a joint run gives the results and kept sends of that
    treatment run alone: the arms share a block's draws and one state array,
    but no arm reads or moves another arm's row. The run has churn, so arms
    read their policy streams at different speeds, and a limit adjustment;
    the second budget splits the main run into four blocks of 40 users."""
    monkeypatch.setattr(sim, "BLOCK_BYTES", budget)
    cfg = small_config(num_users=150, days=4, passes_per_day=3, churn_rate=0.2,
                       send_limits=SendLimitConfig(limits={1: 2, 2: 3}))
    thresholds = np.random.default_rng(5).uniform(0.0, 0.6, size=(2, 5))
    thresholds[1, :2] = NEVER_SEND
    table = PolicyTable(bounds=(-2, 2), types=(1, 2),
                        thresholds=thresholds)
    ks = HeuristicThresholds(by_type={1: 0.2, 2: 0.35})
    treatments = [
        Treatment("heuristic", ks.table, baseline=True),
        Treatment("no_filter", NO_FILTER),
        Treatment("rl", table),
        Treatment("no_filter_minus1", NO_FILTER, limit_adjustment=-1),
    ]
    calibration = fit_sim_calibration(cfg)
    joint = run_experiment(cfg, treatments, calibration, keep_events=True)
    for treatment in treatments:
        alone = run_experiment(cfg, [replace(treatment, baseline=True)], calibration,
                               keep_events=True)
        assert arm_differences(joint, alone, treatment.name) == [], treatment.name

    # the run exercises what it claims to
    assert all(r.reachability_proxy < 1.0 for r in joint.results)
    assert len({r.total_sends for r in joint.results}) == len(treatments)


def test_array_simulator_matches_scalar_oracle(monkeypatch):
    """Reports, event streams and the warm-up equal the one-call-per-user-pass
    oracle exactly, on a run with churn, limit adjustments of +1 and -1 (the
    latter taking type 1's limit to 0), the heuristic with type 2's cutoff on
    a calibrated value, an rl table with never-send cells and narrower streak
    bounds, and no_filter. The block
    budget is set twice: so that the warm-up (6 passes) and the main run (9
    passes) each span several blocks, the last one ragged, and to one main-run
    user's draws, 24 bytes per pass, so that every block holds one user. At
    both budgets `_simulate`'s per-user columns equal the oracle's user by
    user."""
    cfg = small_config(num_users=293, days=3, passes_per_day=3,
                       churn_rate=0.15, send_limits=SendLimitConfig(limits={1: 1, 2: 3}))
    thresholds = np.random.default_rng(5).uniform(0.0, 0.6, size=(2, 5))
    thresholds[1, :2] = NEVER_SEND  # type 2 stops after any ignore
    table = PolicyTable(bounds=(-2, 2), types=(1, 2),
                        thresholds=thresholds)
    warmup = warmup_events_oracle(cfg)
    calibration = fit_isotonic([e.raw_score for e in warmup], [e.outcome for e in warmup])
    # a score equal to a cutoff must skip
    tie = sorted(set(calibration.values))[len(set(calibration.values)) // 2]
    ks = HeuristicThresholds(by_type={1: 0.2, 2: tie})
    treatments = [
        Treatment("heuristic", ks.table, baseline=True),
        Treatment("no_filter_plus1", NO_FILTER, limit_adjustment=1),
        Treatment("no_filter_minus1", NO_FILTER, limit_adjustment=-1),
        Treatment("rl", table),
    ]
    # each arm's rule written out for the oracle: the heuristic as score > k
    rules = [dict(cutoffs=ks.by_type), {}, {},
             dict(cells=threshold_cells(table), bounds=table.bounds)]
    want = run_experiment_oracle(cfg, treatments, rules, calibration, keep_events=True)
    want_columns = simulate_columns_oracle(cfg, treatments, rules, calibration)
    arms = [(t.table, cfg.send_limits.with_extra_adjustment(t.limit_adjustment))
            for t in treatments]

    sizes = {}  # passes -> block sizes, in the order drawn
    draw_block = sim._draw_block

    def spy(config, start, stop, passes, *salts):
        sizes.setdefault(passes, []).append(stop - start)
        return draw_block(config, start, stop, passes, *salts)

    monkeypatch.setattr(sim, "_draw_block", spy)
    for budget, warm, main in ((24 * 9 * 100, [150, 143], [100, 100, 93]),
                               (24 * 9, [1] * 293, [1] * 293)):
        monkeypatch.setattr(sim, "BLOCK_BYTES", budget)
        sizes.clear()
        assert rows(warmup_events(cfg)) == warmup
        assert fit_sim_calibration(cfg) == calibration
        report = run_experiment(cfg, treatments, keep_events=True)
        # the two calls above and run_experiment each run the warm-up
        assert sizes == {6: 3 * warm, 9: main}
        assert report.to_dict() == want.to_dict()
        assert report.max_daily_sends == want.max_daily_sends
        assert report.events.keys() == want.events.keys()
        for name, log in report.events.items():
            assert rows(log) == want.events[name], name
        columns, _ = sim._simulate(cfg, arms, calibration, days=cfg.days, keep_events=False)
        assert columns.keys() == want_columns.keys()
        for key, want_column in want_columns.items():
            assert columns[key].tolist() == want_column, key

    # the run exercises what it claims to
    assert min(r.reachability_proxy for r in report.results) < 1.0
    assert report.result("no_filter_minus1").per_type_sends[1] == 0
    assert report.result("no_filter_minus1").per_type_sends[2] > 0
    rl_type2 = np.count_nonzero(report.events["rl"].user_type == 2)
    assert 0 < rl_type2 < np.count_nonzero(report.events["no_filter_plus1"].user_type == 2)
    ties_send = PolicyTable(bounds=(-1, 1), types=(1, 2),
                            thresholds=np.repeat([[0.2], [tie]], 3, axis=1))
    sends = run_experiment(cfg, [Treatment("ties", ties_send, baseline=True)],
                           calibration).result("ties").per_type_sends[2]
    assert sends > report.result("heuristic").per_type_sends[2]
