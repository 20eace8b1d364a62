"""Synthetic population determinism, pass mechanics, and harness metrics."""

from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from check_arms import differences as arm_differences
from hypothesis import given, settings, strategies as st
from oracles import run_experiment_oracle, streak_oracle, warmup_events_oracle

from notif_ltv import (
    NEVER_SEND,
    CalibrationMap,
    DecisionContext,
    HeuristicThresholds,
    PolicyTable,
    SendLimitConfig,
    SimConfig,
    Treatment,
    decide_heuristic,
    decide_no_filter,
    decide_rl,
    fit_isotonic,
    fit_sim_calibration,
    generate_population,
    ramp_factor_table,
    run_experiment,
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
        assert table.factor(1, -4) == pytest.approx(0.6)
        assert table.factor(1, 4) == pytest.approx(1.4)
        assert table.factor(1, 0) == 1.0

    def test_branches_are_monotone(self):
        table = ramp_factor_table((-5, 5), {1: (0.5, 1.5)})
        vals = [table.factor(1, s) for s in range(-5, 6)]
        assert vals == sorted(vals)


class TestGeneratePopulation:
    def test_same_seed_same_population(self):
        cfg = small_config()
        assert same_block(generate_population(cfg), generate_population(cfg))

    def test_different_seed_differs(self):
        a = generate_population(small_config(master_seed=1))
        b = generate_population(small_config(master_seed=2))
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

    def test_share_for_a_type_without_true_factors_rejected(self):
        with pytest.raises(ValueError, match="user type 3 a share of 0.5"):
            small_config(type_shares={1: 0.5, 2: 0.0, 3: 0.5})
        # a type with no share is never drawn
        small_config(type_shares={1: 0.5, 2: 0.5, 3: 0.0})

    def test_degenerate_share_assigns_single_type(self):
        cfg = small_config(type_shares={1: 1.0, 2: 0.0})
        assert set(generate_population(cfg).user_type.tolist()) == {1}

    def test_baselines_inside_open_interval(self):
        baseline = generate_population(small_config()).baseline
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
        block = generate_population(cfg)
        want = np.broadcast_to(block.baseline[:, None], block.raw_scores.shape)
        np.testing.assert_allclose(block.raw_scores, want, rtol=1e-12)


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
    def run_pass(self, decide, cfg, *, streak=0, sends_today=0, limit=5):
        """One pass of a one-user block (type 1, baseline 0.4)."""
        block = UserBlock(index=np.array([0]), rows=np.array([0]), user_type=np.array([1]),
                          baseline=np.array([0.4]), raw_scores=np.array([[0.5]]),
                          uniforms=np.random.default_rng(7).random((1, 2)))
        state = BlockState.start(block, np.array([[limit]]), [decide], np.array([0.5]),
                                 factors=cfg.true_factors.factors, bounds=cfg.streak_bounds)
        state.streak[:] = streak
        state.sends_today[:] = sends_today
        sent, opened = simulate_pass(state, np.array([0.5]), bounds=cfg.streak_bounds,
                                     churn_rate=cfg.churn_rate)
        return state, sent, opened

    def test_no_filter_under_limit_always_sends(self):
        cfg = small_config()
        state, sent, _ = self.run_pass(decide_no_filter, cfg)
        assert sent.tolist() == [0]
        assert state.sends_today[0] == 1

    def test_at_limit_no_event_and_streak_unchanged(self):
        cfg = small_config()
        state, sent, _ = self.run_pass(decide_no_filter, cfg, streak=3, sends_today=5, limit=5)
        assert sent.size == 0
        assert state.streak[0] == 3
        assert state.sends_today[0] == 5

    def test_arm_at_its_limit_does_not_move(self):
        """Two arms over two users in one pass: arm 1 is at its limit, so it
        keeps its streaks and cursors and only arm 0's flat indices send."""
        cfg = small_config()
        block = UserBlock(index=np.array([0, 1]), rows=np.array([0, 1]),
                          user_type=np.array([1, 2]), baseline=np.array([0.4, 0.3]),
                          raw_scores=np.array([[0.5], [0.5]]),
                          uniforms=np.random.default_rng(7).random((2, 2)))
        state = BlockState.start(block, np.array([[2, 2], [2, 2]]),
                                 [decide_no_filter, decide_no_filter], np.array([0.5]),
                                 factors=cfg.true_factors.factors, bounds=cfg.streak_bounds)
        state.streak[:] = [[1, -1], [3, -2]]
        state.sends_today[1] = 2
        sent, opened = simulate_pass(state, np.array([0.5, 0.5]), bounds=cfg.streak_bounds,
                                     churn_rate=0.5)
        assert sent.tolist() == [0, 1]
        assert len(opened) == 2
        assert state.streak[1].tolist() == [3, -2]
        assert state.cursor[1].tolist() == [0, 0]
        assert state.sends_today.tolist() == [[1, 1], [2, 2]]
        assert state.cursor[0].tolist() == [1 if o else 2 for o in opened.tolist()]

    def test_outcome_advances_streak(self):
        cfg = small_config()
        state, _, opened = self.run_pass(decide_no_filter, cfg, streak=-2)
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
            cfg, [Treatment("all", decide_no_filter, baseline=True)],
            calibration=identity_map(), keep_events=True)
        events = report.events["all"]
        opens = int(events.outcome.sum())
        n = len(events)
        se = np.sqrt(0.5 * 0.5 / n)
        assert abs(opens / n - 0.5) < 4 * se


def step_map(values):
    """A calibration map whose breakpoints are 0, 1, 2, ... and whose values
    are `values`."""
    return CalibrationMap(breakpoints=tuple(map(float, range(len(values)))), values=tuple(values))


calibration_maps = st.one_of(
    st.floats(0, 1).map(lambda v: step_map([v])),
    # -0.0 and +0.0 are two runs, side by side
    st.lists(st.floats(0, 1, exclude_min=True), max_size=6).map(
        lambda vs: step_map([-0.0, 0.0] + sorted(vs))),
    st.integers(0, 2**32 - 1).map(lambda seed: step_map(
        np.sort(np.random.default_rng(seed).random(1000 + seed % 500)).tolist())),
)


class TestSendThresholds:
    """A block's send-threshold table answers as the arms' decide does, for
    every type the block holds, every streak and every calibrated score the
    block's passes can hold, at a few decide calls per block."""

    TYPES = (1, 2)
    BOUNDS = (-4, 4)

    @staticmethod
    def counted(decide, calls, arm):
        def wrapper(ctx):
            calls[arm] += 1
            return decide(ctx)
        return wrapper

    @settings(max_examples=60, deadline=None)
    @given(calibration_maps, st.data())
    def test_table_reproduces_decide(self, cmap, data):
        runs = cmap.run_values
        # cutoffs at run values and just either side of them
        near = np.concatenate([runs, np.nextafter(runs, -1.0), np.nextafter(runs, 2.0)])
        near = near[(near >= 0.0) & (near <= 1.0)].tolist()
        ks = HeuristicThresholds(by_type={c: data.draw(st.sampled_from(near))
                                          for c in self.TYPES})
        cells = data.draw(st.lists(st.sampled_from(runs.tolist() + [NEVER_SEND]),
                                   min_size=10, max_size=10))
        # narrower than the simulator's bounds, so decide_rl clamps streaks
        table = PolicyTable(bounds=(-2, 2), types=self.TYPES,
                            thresholds=np.array(cells).reshape(2, 5))
        decides = [partial(decide_heuristic, thresholds=ks), decide_no_filter,
                   lambda ctx: decide_rl(ctx, table)]
        rows = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6)))
        n = len(rows)
        block = UserBlock(index=np.arange(n), rows=rows, user_type=np.array(self.TYPES)[rows],
                          baseline=np.full(n, 0.3), raw_scores=np.zeros((n, 1)),
                          uniforms=np.zeros((n, 2)))
        calls = [0] * len(decides)
        state = BlockState.start(
            block, np.ones((len(decides), n), dtype=np.int64),
            [self.counted(d, calls, arm) for arm, d in enumerate(decides)], runs,
            factors=np.ones((len(self.TYPES), 9)), bounds=self.BOUNDS)
        assert all(0 < c <= len(runs).bit_length() for c in calls), calls

        lo, hi = self.BOUNDS
        streak = np.repeat(np.arange(lo, hi + 1), len(runs))
        score = np.tile(runs, hi - lo + 1)
        thresholds = state.thresholds.reshape(len(decides), len(self.TYPES), hi - lo + 1)
        for arm, decide in enumerate(decides):
            for row, c in enumerate(self.TYPES):
                if row not in rows:
                    assert (thresholds[arm, row] == NEVER_SEND).all()
                    continue
                ctx = DecisionContext(user_type=np.full(len(score), c), streak=streak,
                                      calibrated_score=score,
                                      sends_today=np.zeros(len(score), dtype=np.int64),
                                      effective_limit=np.ones(len(score), dtype=np.int64))
                got = score >= np.repeat(thresholds[arm, row], len(runs))
                np.testing.assert_array_equal(got, decide(ctx), err_msg=f"arm {arm} row {row}")
                assert not decide(replace(ctx, sends_today=ctx.effective_limit)).any()

        # passes read the table, not decide; none sends at the limit
        before = list(calls)
        best = np.full(n, runs[-1])
        simulate_pass(state, best, bounds=self.BOUNDS, churn_rate=0.0)
        state.sends_today[:] = state.effective_limit
        sent, _ = simulate_pass(state, best, bounds=self.BOUNDS, churn_rate=0.0)
        assert sent.size == 0
        assert calls == before

    def test_decide_calls_per_block_not_per_pass(self, monkeypatch):
        """Every arm's decide is called at most ceil(log2(runs + 1)) times
        per block, on a run with more passes than that, over three blocks."""
        monkeypatch.setattr(sim, "BLOCK_BYTES", 24 * 12 * 20)
        cfg = small_config(num_users=60, days=4, passes_per_day=3)
        calibration = fit_sim_calibration(cfg)
        bound = len(calibration.run_values).bit_length()
        assert bound < cfg.days * cfg.passes_per_day
        calls = [0, 0]
        ks = HeuristicThresholds(by_type={1: 0.2, 2: 0.35})
        treatments = [
            Treatment("h", self.counted(partial(decide_heuristic, thresholds=ks), calls, 0),
                      baseline=True),
            Treatment("nf", self.counted(decide_no_filter, calls, 1)),
        ]
        report = run_experiment(cfg, treatments, calibration)
        assert all(0 < c <= 3 * bound for c in calls), calls
        assert all(r.total_sends > 0 for r in report.results)

    def test_only_types_a_block_holds_reach_decide(self):
        """A heuristic without a cutoff for a type that has no share runs; one
        without a cutoff for a drawn type raises KeyError, as its decide does."""
        ks = HeuristicThresholds(by_type={1: 0.2})
        treatment = Treatment("h", partial(decide_heuristic, thresholds=ks), baseline=True)
        cfg = small_config(type_shares={1: 1.0, 2: 0.0})
        assert run_experiment(cfg, [treatment]).result("h").total_sends > 0
        with pytest.raises(KeyError, match=r"no entry for user type\(s\) \[2\]"):
            run_experiment(small_config(), [treatment], identity_map())


class TestRunExperiment:
    def test_counts_under_always_send(self):
        cfg = small_config(num_users=2, days=5, passes_per_day=1,
                           send_limits=SendLimitConfig(limits={1: 3, 2: 3}))
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").total_sends == 10

    def test_identical_treatments_have_zero_deltas(self):
        cfg = small_config()
        report = run_experiment(
            cfg,
            [Treatment("a", decide_no_filter, baseline=True),
             Treatment("b", decide_no_filter)],
            calibration=identity_map())
        deltas = report.deltas("b")
        assert all(v == 0.0 for v in deltas.values())
        ra, rb = report.result("a"), report.result("b")
        assert (ra.total_sends, ra.total_opens) == (rb.total_sends, rb.total_opens)
        assert ra.discounted_opens == rb.discounted_opens

    def test_duplicate_names_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(cfg, [Treatment("x", decide_no_filter, baseline=True),
                                 Treatment("x", decide_no_filter)],
                           calibration=identity_map())

    def test_exactly_one_baseline_required(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="baseline"):
            run_experiment(cfg, [Treatment("a", decide_no_filter),
                                 Treatment("b", decide_no_filter)],
                           calibration=identity_map())

    def test_opens_never_exceed_sends_and_rates_consistent(self):
        cfg = small_config()
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
                                calibration=identity_map())
        r = report.result("nf")
        assert r.total_opens <= r.total_sends
        assert r.open_rate == pytest.approx(r.total_opens / r.total_sends)

    def test_no_churn_means_full_reachability(self):
        cfg = small_config(churn_rate=0.0)
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").reachability_proxy == 1.0

    def test_churn_reduces_reachability(self):
        cfg = small_config(churn_rate=0.2, num_users=100, days=6)
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
                                calibration=identity_map())
        assert report.result("nf").reachability_proxy < 1.0

    def test_send_limit_never_exceeded_per_user_day(self):
        cfg = small_config(passes_per_day=4,
                           send_limits=SendLimitConfig(limits={1: 2, 2: 1}))
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
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
        report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
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
            f_eff = (table.factor(1, s) - 1.0) * 0.5 + 1.0
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


def test_events_round_trip_through_ingest_format(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg, [Treatment("nf", decide_no_filter, baseline=True)],
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
        [Treatment("base", decide_no_filter, baseline=True),
         Treatment("plus_one", decide_no_filter, limit_adjustment=1)],
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
        Treatment("heuristic", partial(decide_heuristic, thresholds=ks), baseline=True),
        Treatment("no_filter", decide_no_filter),
        Treatment("rl", partial(decide_rl, table=table)),
        Treatment("no_filter_minus1", decide_no_filter, limit_adjustment=-1),
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
    latter taking type 1's limit to 0), the heuristic, an rl table with
    never-send cells and narrower streak bounds, and no_filter. The block
    budget is set twice: so that the warm-up (6 passes) and the main run (9
    passes) each span several blocks, the last one ragged, and below one
    user's 24 bytes per pass, so that every block holds one user."""
    cfg = small_config(num_users=293, days=3, passes_per_day=3,
                       churn_rate=0.15, send_limits=SendLimitConfig(limits={1: 1, 2: 3}))
    thresholds = np.random.default_rng(5).uniform(0.0, 0.6, size=(2, 5))
    thresholds[1, :2] = NEVER_SEND  # type 2 stops after any ignore
    table = PolicyTable(bounds=(-2, 2), types=(1, 2),
                        thresholds=thresholds)
    ks = HeuristicThresholds(by_type={1: 0.2, 2: 0.35})
    treatments = [
        Treatment("heuristic", partial(decide_heuristic, thresholds=ks), baseline=True),
        Treatment("no_filter_plus1", decide_no_filter, limit_adjustment=1),
        Treatment("no_filter_minus1", decide_no_filter, limit_adjustment=-1),
        Treatment("rl", partial(decide_rl, table=table)),
    ]
    warmup = warmup_events_oracle(cfg)
    calibration = fit_isotonic([e.raw_score for e in warmup], [e.outcome for e in warmup])
    want = run_experiment_oracle(cfg, treatments, calibration, keep_events=True)

    sizes = {}  # passes -> block sizes, in the order drawn
    draw_block = sim._draw_block

    def spy(config, start, stop, passes, *salts):
        sizes.setdefault(passes, []).append(stop - start)
        return draw_block(config, start, stop, passes, *salts)

    monkeypatch.setattr(sim, "_draw_block", spy)
    for budget, warm, main in ((24 * 9 * 100, [150, 143], [100, 100, 93]),
                               (24 * 6 - 1, [1] * 293, [1] * 293)):
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

    # the run exercises what it claims to
    assert min(r.reachability_proxy for r in report.results) < 1.0
    assert report.result("no_filter_minus1").per_type_sends[1] == 0
    assert report.result("no_filter_minus1").per_type_sends[2] > 0
    rl_type2 = np.count_nonzero(report.events["rl"].user_type == 2)
    assert 0 < rl_type2 < np.count_nonzero(report.events["no_filter_plus1"].user_type == 2)
