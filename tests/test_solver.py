"""Backward induction, threshold roots, and policy table contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from notif_ltv import (
    NEVER_SEND,
    PolicyTable,
    SolverConfig,
    q_send,
    solve_policy,
    state_values,
)
from notif_ltv import solver
from notif_ltv.cli import _dumps, _policy_texts
from conftest import make_model
from oracles import (NEVER, policy_csv_oracle, solve_policy_oracle, state_values_reference,
                     threshold_oracle, tree_value_oracle)


def col(model, streak):
    return streak - model.factors.bounds[0]


def advantage(model, cfg, p):
    """Send-minus-skip value at score p (broadcast against the grid) with
    the full horizon left."""
    nxt = state_values(model, cfg, cfg.horizon - 1)
    return q_send(model, cfg, nxt, p) - cfg.gamma * nxt


def backup_step(model, cfg, v):
    """One backup from v through the public q_send, at the type-mean score."""
    ybar = np.array([[model.type_mean_open[c]] for c in model.types])
    send = q_send(model, cfg, v, ybar)
    skip = cfg.gamma * v
    return np.where(send >= skip, send, skip)


class TestQFunctions:
    def test_send_at_last_step_is_clipped_open_probability(self, small_model):
        cfg = SolverConfig(gamma=0.9)
        q = q_send(small_model, cfg, state_values(small_model, cfg, 0), 0.5)
        assert q[0, col(small_model, 1)] == pytest.approx(1.2 * 0.5)

    def test_send_with_zero_gamma_is_myopic(self, small_model):
        cfg = SolverConfig(gamma=0.0)
        q = q_send(small_model, cfg, state_values(small_model, cfg, 4), 0.7)
        assert q[0, col(small_model, -1)] == pytest.approx(min(0.8 * 0.7, 1.0))

    def test_send_with_zero_score_keeps_only_ignore_branch(self, small_model):
        cfg = SolverConfig(gamma=0.9)
        nxt = state_values(small_model, cfg, 2)
        q = q_send(small_model, cfg, nxt, 0.0)
        assert q[0, col(small_model, 0)] == pytest.approx(0.9 * nxt[0, col(small_model, -1)])

    def test_open_probability_clips_at_one(self):
        model = make_model({(1, 1): 3.0}, ybar=0.5, bounds=(-1, 1))
        cfg = SolverConfig(gamma=0.0)
        q = q_send(model, cfg, state_values(model, cfg, 0), 0.9)
        assert q[0, col(model, 1)] == pytest.approx(1.0)

    def test_q_send_accepts_vectorized_scores(self, small_model):
        cfg = SolverConfig(gamma=0.9)
        nxt = state_values(small_model, cfg, 3)
        ps = np.array([0.0, 0.3, 0.9])
        vec = q_send(small_model, cfg, nxt, ps[:, None, None])
        sca = [q_send(small_model, cfg, nxt, float(p)) for p in ps]
        assert vec.shape == (3, 1, 3)
        assert np.allclose(vec, sca, atol=0)


class TestStateValue:
    def test_zero_steps_is_zero(self, small_model):
        cfg = SolverConfig()
        values = state_values(small_model, cfg, 0)
        assert values.shape == (1, 3)
        assert np.all(values == 0.0)

    def test_neutral_factors_make_value_streak_independent(self):
        model = make_model({}, ybar=0.4, bounds=(-5, 5))  # f == 1 everywhere
        cfg = SolverConfig(gamma=0.9)
        values = state_values(model, cfg, 12)[0]
        assert max(values) - min(values) == 0.0

    def test_small_instance_matches_tree_oracle(self, small_model):
        cfg = SolverConfig(gamma=0.9)
        factors = {-1: 0.8, 0: 1.0, 1: 1.2}
        values = state_values(small_model, cfg, 3)
        for s in (-1, 0, 1):
            want = tree_value_oracle(factors, 0.5, 0.9, (-1, 1), s, 3)
            assert values[0, col(small_model, s)] == pytest.approx(want, abs=1e-12)

    def test_value_bounds_and_monotone_in_steps(self, small_model):
        cfg = SolverConfig(gamma=0.9)
        prev = np.zeros((1, 3))
        for steps in range(1, 30):
            v = state_values(small_model, cfg, steps)
            assert np.all(v >= 0.0)
            assert np.all(v <= (1 - 0.9 ** steps) / (1 - 0.9) + 1e-12)
            assert np.all(v >= prev - 1e-12)
            prev = v

    def test_value_monotone_in_streak_for_monotone_factors(self):
        factor_map = {}
        for s in range(1, 6):
            factor_map[(1, s)] = 1.0 + 0.04 * s
            factor_map[(1, -s)] = 1.0 - 0.05 * s
        model = make_model(factor_map, ybar=0.35, bounds=(-5, 5))
        cfg = SolverConfig(gamma=0.9)
        values = state_values(model, cfg, 40)[0]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestFindThreshold:
    """The thresholds solve_policy finds, cell by cell."""

    def test_zero_gamma_sends_everything(self, small_model):
        cfg = SolverConfig(gamma=0.0)
        assert np.all(solve_policy(small_model, cfg).thresholds == 0.0)

    def test_neutral_factors_send_everything(self):
        model = make_model({}, ybar=0.5, bounds=(-3, 3))
        cfg = SolverConfig(gamma=0.9)
        assert np.all(solve_policy(model, cfg).thresholds == 0.0)

    def test_matches_closed_form_root_from_oracle_values(self, small_model):
        cfg = SolverConfig(gamma=0.9, horizon=3)
        factors = {-1: 0.8, 0: 1.0, 1: 1.2}
        table = solve_policy(small_model, cfg)
        for s in (-1, 0, 1):
            want = threshold_oracle(factors, 0.5, 0.9, (-1, 1), s, 3)
            got = table.threshold(1, s)
            if want == NEVER:
                assert got == NEVER_SEND
            elif want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_factor_near_the_float_limit_sends_everything(self):
        """The root's slope overflows to inf, without a warning, and the root
        is 0: an open is as good as certain."""
        model = make_model({(1, -1): 1e308, (1, 0): 2.0, (1, 1): 2.0, (1, 2): 2.0},
                           ybar=0.3, bounds=(-2, 2))
        cfg = SolverConfig(gamma=0.9)
        assert np.all(solve_policy(model, cfg).thresholds == 0.0)

    def test_thresholds_never_exceed_type_mean_score(self):
        # sending at the type-mean score always beats pure waiting (the
        # state value itself is realized by such a send), so the threshold
        # is bounded by the mean; never-send can only come from loaded or
        # hand-edited tables, not from solving
        rng = np.random.default_rng(17)
        for _ in range(30):
            bound = int(rng.integers(1, 3))
            fmap = {}
            for s in range(1, bound + 1):
                fmap[(1, s)] = float(rng.uniform(0.2, 2.5))
                fmap[(1, -s)] = float(rng.uniform(0.2, 2.5))
            ybar = float(rng.uniform(0.05, 0.95))
            model = make_model(fmap, ybar, (-bound, bound))
            cfg = SolverConfig(gamma=float(rng.uniform(0, 0.95)),
                             horizon=int(rng.integers(1, 9)))
            thresholds = solve_policy(model, cfg).thresholds
            assert np.all(thresholds != NEVER_SEND)
            assert np.all(thresholds <= ybar)

    @pytest.mark.parametrize("horizon", [250, 1000])
    def test_full_scale_roots_are_the_smallest_sending_scores(self, horizon):
        # every interior threshold t is where the advantage crosses zero:
        # sending at t does not lose, sending just below t does
        model = full_scale_model()
        cfg = SolverConfig(gamma=0.95, horizon=horizon)
        t = solve_policy(model, cfg).thresholds
        interior = (t > 0.0) & np.isfinite(t)
        assert t.shape == (6, 31)
        assert interior.sum() >= 10
        at = advantage(model, cfg, np.where(interior, t, 0.0))
        below = advantage(model, cfg, np.where(interior, t - 1e-9, 0.0))
        assert np.all(at[interior] >= -1e-12)
        assert np.all(below[interior] < 0.0)


class TestSolvePolicy:
    def test_full_table_shape(self):
        factor_map = {(c, s): 1.0 + 0.01 * s for c in range(1, 7)
                      for s in range(-15, 16) if s != 0}
        model = make_model(factor_map, ybar=0.3, bounds=(-15, 15),
                           types=tuple(range(1, 7)))
        cfg = SolverConfig(gamma=0.9, horizon=40)
        table = solve_policy(model, cfg)
        assert table.thresholds.shape == (6, 31)

    def test_zero_gamma_gives_all_zero_table(self, small_model):
        cfg = SolverConfig(gamma=0.0)
        table = solve_policy(small_model, cfg)
        assert np.all(table.thresholds == 0.0)

    def test_deterministic_bit_identical(self, small_model):
        cfg = SolverConfig(gamma=0.9, horizon=30)
        t1 = solve_policy(small_model, cfg)
        t2 = solve_policy(small_model, cfg)
        assert np.array_equal(t1.thresholds, t2.thresholds)

    def test_horizon_convergence(self):
        factor_map = {(1, s): 1.0 + 0.02 * s for s in range(-4, 5) if s != 0}
        model = make_model(factor_map, ybar=0.4, bounds=(-4, 4))
        t_short = solve_policy(model, SolverConfig(gamma=0.9, horizon=250))
        t_long = solve_policy(model, SolverConfig(gamma=0.9, horizon=300))
        assert np.max(np.abs(t_short.thresholds - t_long.thresholds)) < 1e-4

    def test_huge_horizon_stops_at_the_fixed_point(self):
        """Once a step returns the values it was given, every later step does
        too, so a horizon of 10**12 gives the table of 5000 bit for bit."""
        factor_map = {(c, s): 1.0 + 0.01 * s for c in range(1, 7)
                      for s in range(-15, 16) if s != 0}
        model = make_model(factor_map, ybar=0.3, bounds=(-15, 15),
                           types=tuple(range(1, 7)))
        t_huge = solve_policy(model, SolverConfig(gamma=0.9, horizon=10**12))
        t_5000 = solve_policy(model, SolverConfig(gamma=0.9, horizon=5000))
        assert t_huge.thresholds.tobytes() == t_5000.thresholds.tobytes()


class TestPolicyTable:
    def make_table(self):
        thresholds = np.array([[0.1, 0.2, 0.3, 0.4, NEVER_SEND]])
        return PolicyTable(bounds=(-2, 2), types=(1,), thresholds=thresholds)

    def test_lookup_clamps_streak(self):
        table = self.make_table()
        assert table.threshold(1, -7) == 0.1
        assert table.threshold(1, 7) == math.inf
        assert table.threshold(1, 0) == 0.3

    def test_json_round_trip_preserves_never_send(self):
        table = self.make_table()
        loaded = PolicyTable.from_dict(json.loads(json.dumps(table.to_dict())))
        assert np.array_equal(loaded.thresholds, table.thresholds)
        assert loaded.bounds == table.bounds

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 7.0, -math.inf])
    def test_rejects_values_outside_unit_interval_or_never_send(self, bad):
        thresholds = np.array([[0.1, 0.2, bad, 0.4, NEVER_SEND]])
        with pytest.raises(ValueError):
            PolicyTable(bounds=(-2, 2), types=(1,), thresholds=thresholds)

    def test_csv_has_row_per_cell(self):
        text = _policy_texts(self.make_table())[1]
        lines = text.strip().split("\n")
        assert lines[0] == "user_type,streak,threshold"
        assert len(lines) == 1 + 5
        assert lines[-1].endswith("never_send")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_csv_is_the_per_cell_oracle(self, data):
        lo, hi = data.draw(st.integers(-5, -1)), data.draw(st.integers(1, 5))
        types = tuple(data.draw(st.permutations(range(1, 7)))[:data.draw(st.integers(1, 6))])
        cell = st.one_of(st.just(NEVER_SEND), st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
                         st.floats(0.0, 1.0))
        thresholds = [[data.draw(cell) for _ in range(hi - lo + 1)] for _ in types]
        table = PolicyTable(bounds=(lo, hi), types=types, thresholds=thresholds)
        doc, text = _policy_texts(table)
        assert text == policy_csv_oracle(table)
        # the same rendering gives the stdlib's indented JSON text of the table
        assert _dumps(doc) == json.dumps(table.to_dict(), indent=2, sort_keys=True)


def random_small_models(seed, trials):
    """Random one- or two-type models on bounds up to (-2, 2), with a random
    gamma and horizon each: (model, cfg, factor maps, mean opens) per trial."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        bound = int(rng.integers(1, 3))
        bounds = (-bound, bound)
        n_types = int(rng.integers(1, 3))
        types = tuple(range(1, n_types + 1))
        horizon = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.0, 0.95))
        factor_maps = {}
        ybars = {}
        model_map = {}
        for c in types:
            fs = {0: 1.0}
            for s in range(1, bound + 1):
                fs[s] = float(rng.uniform(0.3, 2.0))
                fs[-s] = float(rng.uniform(0.3, 2.0))
            factor_maps[c] = fs
            ybars[c] = float(rng.uniform(0.05, 0.95))
            for s, f in fs.items():
                if s != 0:
                    model_map[(c, s)] = f
        model = make_model(model_map, ybars, bounds, types=types)
        yield model, SolverConfig(gamma=gamma, horizon=horizon), factor_maps, ybars


def full_scale_model(seed=2024):
    """Six types on (-15, 15) with rising open factors and falling ignore
    factors, the shape of a fitted model."""
    rng = np.random.default_rng(seed)
    types = tuple(range(1, 7))
    fmap = {}
    for c in types:
        rise = np.sort(rng.uniform(1.0, 1.6, size=15))
        fall = np.sort(rng.uniform(0.3, 1.0, size=15))[::-1]
        for s in range(1, 16):
            fmap[(c, s)] = float(rise[s - 1])
            fmap[(c, -s)] = float(fall[s - 1])
    ybar = {c: float(rng.uniform(0.02, 0.6)) for c in types}
    return make_model(fmap, ybar, (-15, 15), types=types)


class TestOracleEquivalenceSweep:
    def test_random_small_instances_match_tree_oracle(self):
        for trial, (model, cfg, factor_maps, ybars) in enumerate(random_small_models(99, 40)):
            lo, hi = model.factors.bounds
            values = state_values(model, cfg, cfg.horizon)
            for i, c in enumerate(model.types):
                for s in range(lo, hi + 1):
                    want = tree_value_oracle(factor_maps[c], ybars[c], cfg.gamma,
                                             (lo, hi), s, cfg.horizon)
                    got = values[i, s - lo]
                    assert got == pytest.approx(want, abs=1e-9), \
                        f"trial {trial} type {c} streak {s}"


class TestFlatKernel:
    """state_values gives the bits of the 2-D recursion it replaced, and one
    of its steps is the public q_send backup."""

    STEPS = (0, 1, 15, 16, 17, 250, 999)

    @pytest.mark.parametrize("gamma", [0.0, -0.0, 0.5, 0.8, 0.99])
    def test_random_models_match_the_reference_bit_for_bit(self, gamma):
        models = [m for m, *_ in random_small_models(99, 12)]
        models.append(make_model({(1, 1): 3.0, (1, -1): 0.4}, ybar=1.0, bounds=(-1, 1)))
        models.append(make_model({(1, 1): 1.5, (1, -1): 0.4}, ybar=0.0, bounds=(-1, 1)))
        # a mean open of -0.0 gives -0.0 open terms, which a gamma of -0.0
        # would carry into the values
        models.append(make_model({}, ybar=-0.0, bounds=(-2, 2)))
        for model in models:
            cfg = SolverConfig(gamma=gamma)
            for steps in self.STEPS:
                got = state_values(model, cfg, steps)
                want = state_values_reference(model, cfg, steps)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (model.types, steps)

    @pytest.mark.parametrize("gamma", [0.0, -0.0, 0.5, 0.8, 0.99])
    def test_full_scale_model_matches_the_reference_bit_for_bit(self, gamma):
        model = full_scale_model()
        cfg = SolverConfig(gamma=gamma)
        for steps in self.STEPS:
            got = state_values(model, cfg, steps)
            assert got.tobytes() == state_values_reference(model, cfg, steps).tobytes()

    def test_huge_steps_end_at_the_reference_fixed_point(self):
        model = full_scale_model()
        cfg = SolverConfig(gamma=0.8)
        got = state_values(model, cfg, 10**9)
        assert got.tobytes() == state_values_reference(model, cfg, 10**9).tobytes()
        # one more step from there returns the same bits
        assert backup_step(model, cfg, got).tobytes() == got.tobytes()

    @pytest.mark.parametrize("horizon", [1, 2, 17, 250, 1000])
    def test_policy_tables_match_those_from_reference_values(self, monkeypatch, horizon):
        models = [full_scale_model()] + [m for m, *_ in random_small_models(5, 6)]
        for model in models:
            for gamma in (0.0, 0.8, 0.95):
                cfg = SolverConfig(gamma=gamma, horizon=horizon)
                got = solve_policy(model, cfg).thresholds
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "state_values", state_values_reference)
                    want = solve_policy(model, cfg).thresholds
                assert got.tobytes() == want.tobytes(), (model.types, gamma)

    def test_one_step_is_the_q_send_backup(self):
        # V is the value after a random number of steps of a random model;
        # one more step of state_values must be the public backup from V
        rng = np.random.default_rng(7)
        models = [m for m, *_ in random_small_models(11, 10)] + [full_scale_model()]
        for model in models:
            for gamma in (0.0, 0.5, 0.9, 0.99):
                cfg = SolverConfig(gamma=gamma)
                steps = int(rng.integers(0, 60))
                v = state_values(model, cfg, steps)
                got = state_values(model, cfg, steps + 1)
                assert got.tobytes() == backup_step(model, cfg, v).tobytes(), \
                    (model.types, gamma, steps)

    @pytest.mark.parametrize("column, cell", [("up", -1), ("down", -1), ("up", 0)])
    @pytest.mark.parametrize("steps", [0, 1, 40])
    def test_a_gather_index_outside_the_grid_raises_before_the_loop(self, monkeypatch,
                                                                   column, cell, steps):
        """The gather clips its index rather than check it; the one check
        before the loop still rejects a column that leaves the flat grid,
        past its last cell or before its first, even when no step runs."""
        model = full_scale_model()
        grid = solver._grid

        def bad_grid(model):
            factors, ybar, up, down = grid(model)
            moved = {"up": up.copy(), "down": down.copy()}
            moved[column][cell] = factors.shape[1] if cell == -1 else -1
            return factors, ybar, moved["up"], moved["down"]

        monkeypatch.setattr(solver, "_grid", bad_grid)
        with pytest.raises(IndexError, match=r"^index -?\d+ is out of bounds for axis 0 "
                                             r"with size 186$"):
            state_values(model, SolverConfig(gamma=0.9), steps)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tables_are_the_q_send_formula_bit_for_bit(self, data):
        """solve_policy's thresholds have the bits of the post-processing
        that takes its always- and never-send masks from two q_send calls."""
        lo, hi = data.draw(st.integers(-6, -1)), data.draw(st.integers(1, 6))
        types = tuple(range(1, data.draw(st.integers(1, 6)) + 1))
        factor = st.one_of(st.sampled_from([1e-12, 50.0]),
                           st.floats(0.05, 3.0, exclude_min=True, exclude_max=True))
        mean_open = st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]),
                              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        fmap = {(c, s): data.draw(factor) for c in types for s in range(lo, hi + 1) if s != 0}
        model = make_model(fmap, {c: data.draw(mean_open) for c in types}, (lo, hi),
                           types=types)
        gamma = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999, exclude_max=True)))
        cfg = SolverConfig(gamma=gamma, horizon=data.draw(st.integers(1, 60)))
        got = solve_policy(model, cfg).thresholds
        assert got.tobytes() == solve_policy_oracle(model, cfg).tobytes()
