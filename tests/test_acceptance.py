"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line in the terminal summary (see
conftest). Criteria with statistical tolerances run on fixed seeds so the
suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from notif_ltv import (
    NEVER_SEND,
    NO_FILTER,
    BehaviorModel,
    DecisionContext,
    FactorTable,
    SendLimitConfig,
    SimConfig,
    SolverConfig,
    Treatment,
    apply_calibration,
    apply_kappa,
    build_dataset,
    decide_no_filter,
    decide_rl,
    estimate_factors,
    fit_isotonic,
    monotone_project,
    q_send,
    run_experiment,
    solve_policy,
    state_values,
    warmup_events,
)
from notif_ltv.cli import main as cli_main
from notif_ltv.policy import HeuristicThresholds
from conftest import make_model
from oracles import NEVER, isotonic_fit_oracle, threshold_oracle, tree_value_oracle

ALL_TYPES = tuple(range(1, 7))


def _nontrivial_model(types=ALL_TYPES, bounds=(-15, 15), ybar=None):
    fmap = {}
    for c in types:
        for s in range(1, bounds[1] + 1):
            fmap[(c, s)] = 1.0 + 0.02 * s
        for s in range(bounds[0], 0):
            fmap[(c, -(-s))] = 1.0 + 0.025 * s
    if ybar is None:
        ybar = {c: 0.08 + 0.05 * c for c in types}
    return make_model(fmap, ybar, bounds, types=types)


# --- criterion 1: myopic reductions -----------------------------------------

def test_c1_myopic_reductions_give_all_zero_tables():
    start = time.perf_counter()
    model = _nontrivial_model()
    cfg = SolverConfig(gamma=0.0, horizon=250)
    table_gamma0 = solve_policy(model, cfg)
    assert np.all(table_gamma0.thresholds == 0.0)

    neutral = BehaviorModel(factors=apply_kappa(model.factors, 0.0),
                            type_mean_open=model.type_mean_open)
    table_kappa0 = solve_policy(
        neutral, SolverConfig(gamma=0.9, horizon=250))
    assert np.all(table_kappa0.thresholds == 0.0)

    # every (type, streak, score, sends, limit) of the grid as one block
    grid = np.meshgrid(ALL_TYPES, np.arange(-15, 16), np.linspace(0.0, 1.0, 11),
                       np.arange(4), np.arange(4), indexing="ij")
    ctx = DecisionContext(*(axis.ravel() for axis in grid))
    for table in (table_gamma0, table_kappa0):
        assert (decide_rl(ctx, table) == decide_no_filter(ctx)).all()
    assert time.perf_counter() - start < 1.0


# --- criterion 2: oracle equivalence on small instances ----------------------

def test_c2_solver_matches_exhaustive_tree_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    for trial in range(200):
        bound = int(rng.integers(1, 3))
        bounds = (-bound, bound)
        types = tuple(range(1, int(rng.integers(1, 3)) + 1))
        horizon = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.0, 0.95))
        oracle_factors = {}
        ybars = {}
        fmap = {}
        for c in types:
            fs = {0: 1.0}
            for s in range(1, bound + 1):
                fs[s] = float(rng.uniform(0.3, 2.0))
                fs[-s] = float(rng.uniform(0.3, 2.0))
            oracle_factors[c] = fs
            ybars[c] = float(rng.uniform(0.05, 0.95))
            fmap.update({(c, s): f for s, f in fs.items() if s != 0})
        model = make_model(fmap, ybars, bounds, types=types)
        cfg = SolverConfig(gamma=gamma, horizon=horizon)
        values = state_values(model, cfg, horizon)
        table = solve_policy(model, cfg)
        for i, c in enumerate(types):
            for s in range(-bound, bound + 1):
                want_v = tree_value_oracle(oracle_factors[c], ybars[c], gamma,
                                           bounds, s, horizon)
                got_v = values[i, s + bound]
                assert abs(got_v - want_v) <= 1e-9, f"trial {trial} V({c},{s})"

                want_t = threshold_oracle(oracle_factors[c], ybars[c], gamma,
                                          bounds, s, horizon)
                got_t = table.threshold(c, s)
                if want_t is None:
                    continue  # flat advantage; no root to compare
                if want_t == NEVER:
                    assert got_t == NEVER_SEND, f"trial {trial} thr({c},{s})"
                else:
                    assert abs(got_t - want_t) <= 1e-6 + 1e-12, \
                        f"trial {trial} thr({c},{s})"
    assert time.perf_counter() - start < 30.0


# --- criterion 3: mean collapse of the score expectation ---------------------

def test_c3_monte_carlo_expectation_matches_mean_score_value():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    n_samples = 100_000
    checked = 0
    while checked < 100:
        bound = int(rng.integers(1, 4))
        bounds = (-bound, bound)
        fmap = {}
        for s in range(1, bound + 1):
            fmap[(1, s)] = float(rng.uniform(0.4, 1.8))
            fmap[(1, -s)] = float(rng.uniform(0.4, 1.8))
        ybar = float(rng.uniform(0.1, 0.8))
        model = make_model(fmap, ybar, bounds)
        cfg = SolverConfig(gamma=float(rng.uniform(0.0, 0.95)),
                           horizon=int(rng.integers(2, 7)))
        s = int(rng.integers(-bound, bound + 1))
        f = model.factors.at(model.factors.factors, 1, s)
        # spread keeping the sampled support unclipped and inside [0, 1]
        delta = 0.95 * min(ybar, 1.0 - ybar, max(1.0 / f - ybar, 0.0))
        if delta <= 1e-6 or f * (ybar + delta) > 1.0:
            continue
        nxt = state_values(model, cfg, cfg.horizon - 1)
        samples = rng.uniform(ybar - delta, ybar + delta, size=n_samples)
        q_samples = q_send(model, cfg, nxt, samples[:, None, None])[:, 0, s + bound]
        q_mean = q_send(model, cfg, nxt, ybar)[0, s + bound]
        mc_mean = float(np.mean(q_samples))
        sem = float(np.std(q_samples)) / math.sqrt(n_samples)
        assert abs(mc_mean - q_mean) <= 3.0 * sem + 1e-12
        checked += 1
    assert time.perf_counter() - start < 30.0


# --- criterion 4: full-scale solve performance --------------------------------

def test_c4_full_scale_solve_completes_quickly():
    model = _nontrivial_model()
    start = time.perf_counter()
    table = solve_policy(model, SolverConfig(gamma=0.9, horizon=250))
    elapsed = time.perf_counter() - start
    assert table.thresholds.shape == (6, 31)
    assert np.all(np.isfinite(table.thresholds))
    assert elapsed < 60.0


# --- criterion 5: estimation loop closes over the simulator -------------------

def test_c5_ingest_then_estimation_recovers_scaled_factors():
    # baselines pinned near 0.5 with deviation-symmetric factors keep the
    # first-half baseline window unbiased, so the ratio estimator's error
    # is pure sampling noise and the 3-sigma comparison is meaningful
    bounds = (-6, 6)
    kappa_true = 0.5
    lo, hi = bounds
    n = hi - lo + 1
    factors = np.ones((6, n))
    for i in range(6):
        for s in range(1, hi + 1):
            factors[i, s - lo] = 1.0 + 0.3 * s / hi
        for s in range(lo, 0):
            factors[i, s - lo] = 1.0 + 0.3 * s / (-lo)
    truth = FactorTable(bounds=bounds, types=ALL_TYPES, factors=factors,
                        counts=np.zeros((6, n), dtype=np.int64))
    config = SimConfig(
        num_users=1300, days=30, passes_per_day=3,
        type_shares={c: 1 / 6 for c in ALL_TYPES},
        baseline_beta={c: (3000.0, 3000.0) for c in ALL_TYPES},
        score_noise={c: 0.5 for c in ALL_TYPES},
        true_factors=truth, kappa_true=kappa_true,
        send_limits=SendLimitConfig(limits={c: 3 for c in ALL_TYPES}),
        master_seed=314159, gamma=0.9,
    )
    report = run_experiment(config, [Treatment("nf", NO_FILTER, baseline=True)],
                            calibration=None, keep_events=True)
    log = report.events["nf"]
    assert len(log) >= 100_000

    records = build_dataset(log, min_samples=10, bounds=bounds)

    estimated = estimate_factors(records)
    effective = apply_kappa(truth, kappa_true)
    for i, c in enumerate(ALL_TYPES):
        for s in range(lo, hi + 1):
            if s == 0 or estimated.at(estimated.counts, c, s) == 0:
                continue
            cell = records.baseline_rate[(records.user_type == c)
                                         & (records.streak == s)].tolist()
            f_true = effective.at(effective.factors, c, s)
            den = sum(cell)
            var = sum(min(f_true * b, 1.0) * (1.0 - min(f_true * b, 1.0)) for b in cell)
            sigma = math.sqrt(var) / den
            err = abs(estimated.at(estimated.factors, c, s) - f_true)
            assert err <= 3.0 * sigma, \
                f"type {c} streak {s}: err {err:.4f} vs 3 sigma {3 * sigma:.4f}"

    projected = monotone_project(estimated)
    for c in ALL_TYPES:
        assert projected.at(projected.factors, c, 0) == 1.0
        for s in range(1, hi):
            further, nearer = projected.at(projected.factors, c, [s + 1, s])
            assert further >= nearer
        for s in range(-1, lo, -1):
            further, nearer = projected.at(projected.factors, c, [s - 1, s])
            assert further <= nearer


# --- criterion 6: calibration against the quadratic oracle --------------------

def test_c6_isotonic_fit_matches_oracle_exhaustively():
    start = time.perf_counter()
    rng = np.random.default_rng(20240606)
    score_pool = np.array([0.0, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0])
    grid = np.linspace(0.0, 1.0, 1000)
    for case in range(10_000):
        size = int(rng.integers(2, 13))
        scores = rng.choice(score_pool, size=size)
        outcomes = rng.integers(0, 2, size=size)
        pairs = list(zip(scores.tolist(), outcomes.tolist()))
        cmap = fit_isotonic(scores, outcomes)
        want_bps, want_vals = isotonic_fit_oracle(pairs)
        assert list(cmap.breakpoints) == want_bps, f"case {case}"
        assert list(cmap.values) == want_vals, f"case {case}"

        ys = apply_calibration(cmap, grid)
        assert (ys >= np.concatenate(([-1.0], ys[:-1]))).all(), f"case {case}"
    assert time.perf_counter() - start < 30.0


# --- criterion 7 and 9: directional A/B reproduction and send-limit safety ----

def _cliff_table(bounds=(-15, 15)):
    """Strong, monotone ground truth: one ignored send cuts the open rate
    sharply while long open runs boost it."""
    lo, hi = bounds
    n = hi - lo + 1
    factors = np.ones((len(ALL_TYPES), n))
    for i in range(len(ALL_TYPES)):
        for s in range(1, hi + 1):
            factors[i, s - lo] = 1.6 + 0.6 * (s - 1) / (hi - 1)
        for s in range(-1, lo - 1, -1):
            factors[i, s - lo] = 0.2 - 0.05 * (-s - 1) / (-lo - 1)
    return FactorTable(bounds=bounds, types=ALL_TYPES, factors=factors,
                       counts=np.zeros((len(ALL_TYPES), n), dtype=np.int64))


@pytest.fixture(scope="module")
def directional_run():
    start = time.perf_counter()
    config = SimConfig(
        num_users=5000, days=30, passes_per_day=3,
        type_shares={1: 0.22, 2: 0.20, 3: 0.18, 4: 0.16, 5: 0.14, 6: 0.10},
        baseline_beta={1: (1.0, 2.5), 2: (0.9, 3.3), 3: (0.8, 4.2),
                       4: (0.7, 5.6), 5: (0.65, 7.5), 6: (0.6, 11.0)},
        score_noise={c: 0.9 for c in ALL_TYPES},
        true_factors=_cliff_table(),
        kappa_true=0.4,
        send_limits=SendLimitConfig(limits={c: 3 for c in ALL_TYPES}),
        master_seed=2024, gamma=0.9, calibration_days=2,
    )
    log = warmup_events(config)
    calibration = fit_isotonic(log.raw_score, log.outcome)
    calibrated = apply_calibration(calibration, log.raw_score)
    scores = {c: calibrated[log.user_type == c] for c in ALL_TYPES}
    ybar = {c: float(np.mean(scores[c])) for c in ALL_TYPES}

    model = BehaviorModel(factors=apply_kappa(config.true_factors, config.kappa_true),
                          type_mean_open=ybar)
    table = solve_policy(model, SolverConfig(gamma=0.9, horizon=250))
    # heuristic cutoffs tuned the way production cutoffs are: to pass a
    # target share of candidate scores (here the bottom 4 percent per type)
    ks = HeuristicThresholds(by_type={c: float(np.quantile(scores[c], 0.04))
                                      for c in ALL_TYPES})
    treatments = [
        Treatment("heuristic", ks.table, baseline=True),
        Treatment("no_filter", NO_FILTER),
        Treatment("rl", table),
    ]
    report = run_experiment(config, treatments, calibration=calibration)
    elapsed = time.perf_counter() - start
    return config, report, elapsed


def test_c7_directional_reproduction_of_ab_orderings(directional_run):
    config, report, elapsed = directional_run
    heur = report.result("heuristic")
    nf = report.result("no_filter")
    rl = report.result("rl")

    # (a) unfiltered sending: strictly more sends, strictly lower open rate
    assert nf.total_sends > heur.total_sends
    assert nf.open_rate < heur.open_rate
    # (b) solved policy: strictly fewer sends, strictly higher open rate
    assert rl.total_sends < heur.total_sends
    assert rl.total_sends < nf.total_sends
    assert rl.open_rate > heur.open_rate
    assert rl.open_rate > nf.open_rate
    # (c) discounted opens within 5 percent of the baseline or better
    assert rl.discounted_opens >= 0.95 * heur.discounted_opens
    assert elapsed < 300.0


def test_c9_send_limit_safety(directional_run):
    config, report, _ = directional_run
    for treatment in report.results:
        limits = config.send_limits.with_extra_adjustment(treatment.limit_adjustment)
        max_limit = max(limits.effective_limit(c) for c in ALL_TYPES)
        assert report.max_daily_sends[treatment.name] <= max_limit

    # full event-stream check on a run with churn, adjustments, and a
    # limit that actually binds
    config2 = SimConfig(
        num_users=500, days=8, passes_per_day=4,
        type_shares={c: 1 / 6 for c in ALL_TYPES},
        baseline_beta={c: (2.0, 4.0) for c in ALL_TYPES},
        score_noise={c: 0.8 for c in ALL_TYPES},
        true_factors=_cliff_table((-6, 6)),
        kappa_true=0.4,
        send_limits=SendLimitConfig(limits={1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}),
        master_seed=99, gamma=0.9, churn_rate=0.02,
    )
    ks = HeuristicThresholds(by_type={c: 0.15 for c in ALL_TYPES})
    report2 = run_experiment(
        config2,
        [Treatment("heuristic", ks.table, baseline=True),
         Treatment("no_filter_plus1", NO_FILTER, limit_adjustment=1),
         Treatment("no_filter_minus1", NO_FILTER, limit_adjustment=-1)],
        keep_events=True)
    for treatment in report2.results:
        limits = config2.send_limits.with_extra_adjustment(treatment.limit_adjustment)
        log = report2.events[treatment.name]
        user_day = log.user * config2.days + log.timestamp // 86400
        _, first, count = np.unique(user_day, return_index=True, return_counts=True)
        limit = np.array([limits.effective_limit(c) for c in log.user_type[first].tolist()])
        over = first[count > limit]
        assert over.size == 0, \
            f"{treatment.name}: user {log.users[log.user[over[0]]]} exceeded the daily limit"


# --- criterion 8: byte-identical reports across thread counts -----------------

def test_c8_simulate_command_is_thread_deterministic(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "num_users": 300, "days": 5, "passes_per_day": 2, "master_seed": 7,
        "type_shares": {str(c): 1 / 6 for c in ALL_TYPES},
        "baseline_beta": {str(c): [2, 5] for c in ALL_TYPES},
        "score_noise": {str(c): 0.7 for c in ALL_TYPES},
        "streak_bounds": [-6, 6],
        "factor_ramps": {str(c): [0.6, 1.4] for c in ALL_TYPES},
        "kappa_true": 0.4,
        "send_limits": {"limits": {str(c): 2 for c in ALL_TYPES}, "adjustment": 0},
    }))
    treatments = tmp_path / "treatments.json"
    treatments.write_text(json.dumps([
        {"name": "heuristic", "policy": "heuristic", "baseline": True,
         "thresholds": {str(c): 0.2 for c in ALL_TYPES}},
        {"name": "no_filter", "policy": "no_filter"},
    ]))
    outs = []
    for threads, tag in ((1, "a"), (4, "b"), (1, "c")):
        out_dir = tmp_path / tag
        code = cli_main(["simulate", "--sim-config", str(sim_cfg),
                         "--treatments", str(treatments),
                         "--out-dir", str(out_dir), "--threads", str(threads)])
        assert code == 0
        outs.append((out_dir / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]
