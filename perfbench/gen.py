"""Seeded input generator for the benchmark workloads.

Uses numpy only, never `notif_ltv`, so a change to the package cannot change
the inputs another workload is measured on. Every input is a pure function
of (workload, seed); `ensure_inputs` caches the files under one directory
per (workload, seed) so generation is never timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

TYPES = (1, 2, 3, 4, 5, 6)
TYPE_SHARES = (0.22, 0.20, 0.18, 0.16, 0.14, 0.10)
BASELINE_BETA = ((1.0, 2.5), (0.9, 3.3), (0.8, 4.2), (0.7, 5.6), (0.65, 7.5), (0.6, 11.0))
STREAK_BOUNDS = (-15, 15)
KAPPA = 0.4
DAY = 86400
PASSES_PER_DAY = 3
# log epoch: midnight UTC, so day boundaries line up with timestamp // DAY
T0 = 1_699_920_000

# daily_refit: 30 days of sends from a population with a well-ranked scorer
REFIT_USERS = 6000
REFIT_DAYS = 30
# ranker_regression: normal history, then one day in which the ranker is
# anti-ranked (high score, low open rate) -- the 24 h calibration window
REGRESSION_USERS = 6500
REGRESSION_DAYS = 2
# ab_test: the simulator population size and horizon
AB_USERS = 800
AB_DAYS = 30

# cell-by-cell ground truth of the acceptance suite's directional test: one
# ignored send cuts the open rate sharply while long open runs boost it
_CLIFF_POS = (1.6, 0.6)
_CLIFF_NEG = (0.2, 0.05)
# per-type mean calibrated score of the cliff population (warm-up estimate)
CLIFF_MEAN_OPEN = (0.2245, 0.1753, 0.1452, 0.1074, 0.0809, 0.0644)
# heuristic baseline cutoffs: the 4th percentile of calibrated scores per type
HEURISTIC_CUTOFFS = (0.0218, 0.0132, 0.0056, 0.0, 0.0, 0.0)
# daily send limits; below PASSES_PER_DAY for types 4-6, so the limit binds
SEND_LIMITS = (3, 3, 3, 2, 2, 2)

SWEEP_GAMMAS = (0.8, 0.9, 0.95, 0.99)
SWEEP_HORIZONS = (250, 1000)

CACHE_KEEP = 4


def cliff_factors() -> np.ndarray:
    """Cliff ground truth, shape (types, streaks); column j is streak lo + j."""
    lo, hi = STREAK_BOUNDS
    f = np.ones((len(TYPES), hi - lo + 1))
    for s in range(1, hi + 1):
        f[:, s - lo] = _CLIFF_POS[0] + _CLIFF_POS[1] * (s - 1) / (hi - 1)
    for s in range(-1, lo - 1, -1):
        f[:, s - lo] = _CLIFF_NEG[0] - _CLIFF_NEG[1] * (-s - 1) / (-lo - 1)
    return f


def _ramp_factors() -> np.ndarray:
    """Linear ramps from 0.55 at the lowest streak to 1.25 at the highest,
    kappa-scaled: the log population's truth."""
    lo, hi = STREAK_BOUNDS
    s = np.arange(lo, hi + 1)
    f = np.where(s > 0, 1.0 + s / hi * 0.25, np.where(s < 0, 1.0 - s / lo * 0.45, 1.0))
    return (f - 1.0) * KAPPA + 1.0


def _population(rng: np.random.Generator, n: int):
    types = rng.choice(np.array(TYPES), size=n, p=np.array(TYPE_SHARES))
    beta = np.array(BASELINE_BETA)[types - 1]
    baseline = np.clip(rng.beta(beta[:, 0], beta[:, 1]), 1e-3, 1 - 1e-3)
    return types, baseline


def _logit(p):
    return np.log(p / (1.0 - p))


def _send_log(rng: np.random.Generator, n_users: int, days: int,
              anti_ranked_days: int = 0) -> tuple[list[str], int]:
    """JSON Lines send log, in timestamp order.

    Each user gets a send on each of PASSES_PER_DAY daily passes with a
    per-user probability. The open probability follows the streak mechanism
    min(f(streak) * baseline, 1), so the log has real streak structure. The
    score is a noisy logit of that probability (a well-ranked scorer), except
    on the last `anti_ranked_days`, where its sign is flipped.
    Returns the lines and the number of events.
    """
    lo, hi = STREAK_BOUNDS
    factors = _ramp_factors()
    types, baseline = _population(rng, n_users)
    send_prob = rng.uniform(0.12, 0.5, size=n_users)
    offset = rng.integers(0, DAY // PASSES_PER_DAY, size=n_users)
    streak = np.zeros(n_users, dtype=np.int64)
    cols = {k: [] for k in ("user", "ts", "score", "outcome")}
    for step in range(days * PASSES_PER_DAY):
        day, slot = divmod(step, PASSES_PER_DAY)
        sent = np.flatnonzero(rng.random(n_users) < send_prob)
        p = np.minimum(factors[streak[sent] - lo] * baseline[sent], 1.0 - 1e-6)
        outcome = (rng.random(sent.size) < p).astype(np.int64)
        z = _logit(p) + 0.6 * rng.standard_normal(sent.size)
        if day >= days - anti_ranked_days:
            z = -z
        score = np.round(1.0 / (1.0 + np.exp(-z)), 6)
        cols["user"].append(sent)
        cols["ts"].append(T0 + day * DAY + slot * (DAY // PASSES_PER_DAY) + offset[sent])
        cols["score"].append(score)
        cols["outcome"].append(outcome)
        s = streak[sent]
        streak[sent] = np.where(outcome == 1, np.minimum(np.maximum(s, 0) + 1, hi),
                                np.maximum(np.minimum(s, 0) - 1, lo))
    user = np.concatenate(cols["user"])
    ts = np.concatenate(cols["ts"])
    score = np.concatenate(cols["score"])
    outcome = np.concatenate(cols["outcome"])
    order = np.argsort(ts, kind="stable")
    lines = [f'{{"user_id": "u{u:06d}", "user_type": {t}, "timestamp": {s}, '
             f'"raw_score": {r!r}, "outcome": {o}}}\n'
             for u, t, s, r, o in zip(user[order].tolist(), types[user[order]].tolist(),
                                      ts[order].tolist(), score[order].tolist(),
                                      outcome[order].tolist())]
    return lines, len(lines)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def behavior_model() -> dict:
    """The fixed model behind solve_sweep and the rl arm's policy table:
    the kappa-scaled cliff truth with the cliff population's mean scores."""
    lo, hi = STREAK_BOUNDS
    factors = (cliff_factors() - 1.0) * KAPPA + 1.0
    n = hi - lo + 1
    return {
        "version": 1, "kappa": KAPPA, "streak_bounds": [lo, hi], "types": list(TYPES),
        "factors": {str(c): factors[i].tolist() for i, c in enumerate(TYPES)},
        "counts": {str(c): [0] * n for c in TYPES},
        "type_mean_open": {str(c): v for c, v in zip(TYPES, CLIFF_MEAN_OPEN)},
        "type_population_share": {str(c): v for c, v in zip(TYPES, TYPE_SHARES)},
    }


def _sim_config(seed: int) -> dict:
    lo, hi = STREAK_BOUNDS
    return {
        "num_users": AB_USERS, "days": AB_DAYS, "passes_per_day": PASSES_PER_DAY,
        "master_seed": seed, "gamma": 0.9, "churn_rate": 0.01, "calibration_days": 2,
        "type_shares": {str(c): v for c, v in zip(TYPES, TYPE_SHARES)},
        "baseline_beta": {str(c): list(v) for c, v in zip(TYPES, BASELINE_BETA)},
        "score_noise": {str(c): 0.9 for c in TYPES},
        "true_factors": {"streak_bounds": [lo, hi], "types": list(TYPES),
                         "factors": {str(c): row.tolist()
                                     for c, row in zip(TYPES, cliff_factors())},
                         "counts": {str(c): [0] * (hi - lo + 1) for c in TYPES}},
        "kappa_true": KAPPA,
        "send_limits": {"limits": {str(c): v for c, v in zip(TYPES, SEND_LIMITS)},
                        "adjustment": 0},
    }


def _treatments() -> list:
    return [
        {"name": "heuristic", "policy": "heuristic", "baseline": True,
         "thresholds": {str(c): k for c, k in zip(TYPES, HEURISTIC_CUTOFFS)}},
        {"name": "no_filter", "policy": "no_filter"},
        {"name": "rl", "policy": "rl", "table_path": "rl_policy.json"},
    ]


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input files into out_dir; return their facts.

    The returned dict (also written as inputs.json) holds the file names,
    item counts the metrics divide by, and a digest of the input bytes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(workload)]))
    os.makedirs(out_dir, exist_ok=True)
    facts = {"workload": workload, "seed": seed}
    if workload in ("daily_refit", "ranker_regression"):
        if workload == "daily_refit":
            lines, n = _send_log(rng, REFIT_USERS, REFIT_DAYS)
            days = REFIT_DAYS
        else:
            lines, n = _send_log(rng, REGRESSION_USERS, REGRESSION_DAYS, anti_ranked_days=1)
            days = REGRESSION_DAYS
        _write(os.path.join(out_dir, "events.jsonl"), "".join(lines))
        facts.update(files=["events.jsonl"], events=n, now=T0 + days * DAY)
    elif workload == "solve_sweep":
        _write_json(os.path.join(out_dir, "model.json"), behavior_model())
        lo, hi = STREAK_BOUNDS
        facts.update(files=["model.json"], cells=len(TYPES) * (hi - lo + 1),
                     gammas=list(SWEEP_GAMMAS), horizons=list(SWEEP_HORIZONS))
    elif workload == "ab_test":
        _write_json(os.path.join(out_dir, "sim.json"), _sim_config(seed))
        _write_json(os.path.join(out_dir, "treatments.json"), _treatments())
        shutil.copyfile(os.path.join(FIXTURES, "rl_policy.json"),
                        os.path.join(out_dir, "rl_policy.json"))
        facts.update(files=["sim.json", "treatments.json", "rl_policy.json"],
                     users=AB_USERS, days=AB_DAYS, passes=PASSES_PER_DAY,
                     arms=len(_treatments()),
                     limits={str(c): v for c, v in zip(TYPES, SEND_LIMITS)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digest = hashlib.sha256()
    for name in facts["files"]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    facts["inputs_sha256"] = digest.hexdigest()
    _write_json(os.path.join(out_dir, "inputs.json"), facts)
    return facts


def ensure_inputs(cache_root: str, workload: str, seed: int) -> tuple[str, dict]:
    """Inputs for (workload, seed), generated on first use and cached.

    Only the CACHE_KEEP most recently used seeds of a workload stay on disk.
    """
    out_dir = os.path.join(cache_root, f"{workload}-{seed}")
    facts_path = os.path.join(out_dir, "inputs.json")
    if os.path.exists(facts_path):
        os.utime(out_dir)
        with open(facts_path, encoding="utf-8") as fh:
            return out_dir, json.load(fh)
    tmp = f"{out_dir}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    facts = generate(workload, seed, tmp)
    os.replace(tmp, out_dir)
    siblings = sorted((e for e in os.scandir(cache_root)
                       if e.is_dir() and e.name.startswith(f"{workload}-")
                       and ".tmp" not in e.name),
                      key=lambda e: e.stat().st_mtime, reverse=True)
    for stale in siblings[CACHE_KEEP:]:
        shutil.rmtree(stale.path, ignore_errors=True)
    return out_dir, facts
