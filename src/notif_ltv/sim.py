"""Deterministic synthetic-population A/B harness.

Each simulated user has a latent baseline open rate drawn from a per-type
Beta distribution; the ground-truth streak response multiplies that
baseline exactly the way the fitted behavior model assumes it does. Every
pass draws a candidate score (a noisy signal of the user's baseline), runs
it through the calibration map and the treatment's policy, and on a send
resolves the outcome and advances the streak.

Treatments are compared with common random numbers: user i's latent stream
(type, baseline, candidate scores) is derived from (master_seed, i) and is
identical in every treatment, while outcome and churn draws live in a
separate per-user stream so that one treatment skipping a send cannot
desynchronize another treatment's candidates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .behavior import FactorTable, apply_kappa
from .calibrate import CalibrationMap, apply_calibration, fit_isotonic
from .core import (
    NotificationEvent,
    SendLimitConfig,
    advance_streak,
    streak_after_skip,
    validate_streak_bounds,
)
from .policy import DecisionContext, decide_no_filter

SECONDS_PER_DAY = 86400

# salts for per-user SeedSequence sub-streams
_LATENT = 0
_POLICY = 1
_WARMUP_LATENT = 2
_WARMUP_POLICY = 3


def ramp_factor_table(bounds: tuple[int, int],
                      ramps: dict[int, tuple[float, float]]) -> FactorTable:
    """Ground-truth factor table with linear ramps away from 1.

    ramps[c] = (value at s_min, value at s_max); streak 0 sits at 1 and the
    branches interpolate linearly, so the table is monotone by construction.
    """
    lo, hi = validate_streak_bounds(bounds)
    types = tuple(sorted(ramps))
    n = hi - lo + 1
    factors = np.ones((len(types), n))
    for i, c in enumerate(types):
        neg_end, pos_end = ramps[c]
        for s in range(lo, hi + 1):
            if s > 0:
                factors[i, s - lo] = 1.0 + (s / hi) * (pos_end - 1.0)
            elif s < 0:
                factors[i, s - lo] = 1.0 + (s / lo) * (neg_end - 1.0)
    counts = np.zeros((len(types), n), dtype=np.int64)
    return FactorTable(bounds=(lo, hi), types=types, factors=factors, counts=counts)


@dataclass
class SimUser:
    """One synthetic user's latent traits and mutable per-treatment state."""

    user_id: str
    index: int
    user_type: int
    true_baseline: float
    streak: int = 0
    sends_today: int = 0
    active_today: bool = False
    reachable: bool = True


@dataclass
class SimConfig:
    """Population, horizon, and ground-truth behavior for a simulation run."""

    num_users: int
    days: int
    passes_per_day: int
    type_shares: dict[int, float]
    baseline_beta: dict[int, tuple[float, float]]
    score_noise: dict[int, float]
    true_factors: FactorTable
    kappa_true: float
    send_limits: SendLimitConfig
    master_seed: int
    gamma: float = 0.9
    churn_rate: float = 0.0
    calibration_days: int = 2

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.days < 1 or self.passes_per_day < 1 or self.calibration_days < 1:
            raise ValueError("days, passes_per_day and calibration_days must be >= 1")
        if not 0.0 <= self.kappa_true <= 1.0:
            raise ValueError(f"kappa_true must be in [0, 1], got {self.kappa_true}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(f"churn_rate must be in [0, 1], got {self.churn_rate}")
        total = sum(self.type_shares.values())
        if any(v < 0 for v in self.type_shares.values()) or not math.isclose(total, 1.0,
                                                                             abs_tol=1e-9):
            raise ValueError(f"type_shares must be non-negative and sum to 1, got {total}")
        for c in self.true_factors.types:
            for name, mapping in (("type_shares", self.type_shares),
                                  ("baseline_beta", self.baseline_beta),
                                  ("score_noise", self.score_noise),
                                  ("send_limits", self.send_limits.limits)):
                if c not in mapping:
                    raise ValueError(f"{name} has no entry for user type {c}")

    @property
    def streak_bounds(self) -> tuple[int, int]:
        return self.true_factors.bounds

    @property
    def types(self) -> tuple[int, ...]:
        return self.true_factors.types

    def to_dict(self) -> dict:
        return {
            "num_users": self.num_users,
            "days": self.days,
            "passes_per_day": self.passes_per_day,
            "type_shares": {str(c): float(v) for c, v in sorted(self.type_shares.items())},
            "baseline_beta": {str(c): [float(v[0]), float(v[1])]
                              for c, v in sorted(self.baseline_beta.items())},
            "score_noise": {str(c): float(v) for c, v in sorted(self.score_noise.items())},
            "true_factors": self.true_factors.to_dict(),
            "kappa_true": self.kappa_true,
            "send_limits": self.send_limits.to_dict(),
            "master_seed": self.master_seed,
            "gamma": self.gamma,
            "churn_rate": self.churn_rate,
            "calibration_days": self.calibration_days,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        if "true_factors" in d:
            table = FactorTable.from_dict(d["true_factors"])
        elif "factor_ramps" in d:
            table = ramp_factor_table(tuple(d["streak_bounds"]),
                                      {int(c): (float(v[0]), float(v[1]))
                                       for c, v in d["factor_ramps"].items()})
        else:
            raise ValueError("config needs either 'true_factors' or 'factor_ramps'")
        return cls(
            num_users=int(d["num_users"]),
            days=int(d["days"]),
            passes_per_day=int(d["passes_per_day"]),
            type_shares={int(c): float(v) for c, v in d["type_shares"].items()},
            baseline_beta={int(c): (float(v[0]), float(v[1]))
                           for c, v in d["baseline_beta"].items()},
            score_noise={int(c): float(v) for c, v in d["score_noise"].items()},
            true_factors=table,
            kappa_true=float(d["kappa_true"]),
            send_limits=SendLimitConfig.from_dict(d["send_limits"]),
            master_seed=int(d["master_seed"]),
            gamma=float(d.get("gamma", 0.9)),
            churn_rate=float(d.get("churn_rate", 0.0)),
            calibration_days=int(d.get("calibration_days", 2)),
        )


@dataclass
class Treatment:
    """A named policy arm; exactly one treatment must be the baseline."""

    name: str
    decide: Callable[[DecisionContext], bool]
    limit_adjustment: int = 0
    baseline: bool = False


@dataclass
class TreatmentResult:
    name: str
    limit_adjustment: int
    total_sends: int
    total_opens: int
    open_rate: float
    dau_proxy: float
    reachability_proxy: float
    discounted_opens: float
    per_type_sends: dict[int, int]
    per_type_opens: dict[int, int]
    is_baseline: bool


def _pct_delta(value: float, base: float) -> float | None:
    if base == 0:
        return None
    return (value - base) / base * 100.0


@dataclass
class ExperimentReport:
    """All treatment results plus percent deltas against the baseline arm."""

    baseline_name: str
    results: list[TreatmentResult]
    max_daily_sends: dict[str, int] = field(default_factory=dict)
    events: dict[str, list[NotificationEvent]] | None = None

    def result(self, name: str) -> TreatmentResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(f"no treatment named {name!r}")

    def _baseline(self) -> TreatmentResult:
        return self.result(self.baseline_name)

    def deltas(self, name: str) -> dict[str, float | None]:
        r = self.result(name)
        b = self._baseline()
        return {
            "total_sends": _pct_delta(r.total_sends, b.total_sends),
            "open_rate": _pct_delta(r.open_rate, b.open_rate),
            "dau_proxy": _pct_delta(r.dau_proxy, b.dau_proxy),
            "reachability_proxy": _pct_delta(r.reachability_proxy, b.reachability_proxy),
            "discounted_opens": _pct_delta(r.discounted_opens, b.discounted_opens),
        }

    def to_dict(self) -> dict:
        base = self._baseline()
        treatments = []
        per_type = []
        for r in self.results:
            treatments.append({
                "name": r.name,
                "limit_adjustment": r.limit_adjustment,
                "is_baseline": r.is_baseline,
                "total_sends": r.total_sends,
                "total_opens": r.total_opens,
                "open_rate": r.open_rate,
                "dau_proxy": r.dau_proxy,
                "reachability_proxy": r.reachability_proxy,
                "discounted_opens": r.discounted_opens,
                "deltas": self.deltas(r.name),
            })
            for c in sorted(r.per_type_sends):
                per_type.append({
                    "treatment": r.name,
                    "user_type": c,
                    "sends": r.per_type_sends[c],
                    "opens": r.per_type_opens[c],
                    "sends_delta_pct": _pct_delta(r.per_type_sends[c], base.per_type_sends[c]),
                    "opens_delta_pct": _pct_delta(r.per_type_opens[c], base.per_type_opens[c]),
                })
        return {"version": 1, "baseline": self.baseline_name,
                "treatments": treatments, "per_type": per_type}

    def to_table_text(self) -> str:
        headers = ["Treatment", "Send Limit", "Total Sends", "Open Rate",
                   "DAU", "Reachability"]
        rows = [headers]
        for r in self.results:
            if r.is_baseline:
                cells = ["(baseline)"] * 4
            else:
                d = self.deltas(r.name)
                cells = [_fmt_pct(d["total_sends"]), _fmt_pct(d["open_rate"]),
                         _fmt_pct(d["dau_proxy"]), _fmt_pct(d["reachability_proxy"])]
            rows.append([r.name, f"{r.limit_adjustment:+d}"] + cells)
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines) + "\n"

    def to_per_type_csv(self) -> str:
        lines = ["treatment,user_type,sends,opens,sends_delta_pct,opens_delta_pct"]
        for row in self.to_dict()["per_type"]:
            sd = row["sends_delta_pct"]
            od = row["opens_delta_pct"]
            lines.append(",".join([
                row["treatment"], str(row["user_type"]), str(row["sends"]),
                str(row["opens"]),
                "" if sd is None else f"{sd:.4f}",
                "" if od is None else f"{od:.4f}",
            ]))
        return "\n".join(lines) + "\n"


def _fmt_pct(v: float | None) -> str:
    return "n/a" if v is None else f"{v:+.2f}%"


def _spawn_user(config: SimConfig, index: int, salt: int) -> tuple[SimUser, np.random.Generator]:
    """Rebuild user `index` and return the latent stream positioned after
    the type and baseline draws. Identical across treatments by construction."""
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, index, salt]))
    u = rng.random()
    cum = 0.0
    user_type = config.types[-1]
    for c in config.types:
        cum += config.type_shares[c]
        if u < cum:
            user_type = c
            break
    a, b = config.baseline_beta[user_type]
    baseline = float(rng.beta(a, b))
    baseline = min(max(baseline, 1e-6), 1.0 - 1e-6)
    user = SimUser(user_id=f"u{index:07d}", index=index,
                   user_type=user_type, true_baseline=baseline)
    return user, rng


def generate_population(config: SimConfig) -> list[SimUser]:
    """Fresh population in user-index order; same seed, same population."""
    return [_spawn_user(config, i, _LATENT)[0] for i in range(config.num_users)]


def _draw_raw_score(latent_rng: np.random.Generator, user: SimUser, config: SimConfig) -> float:
    """Candidate score: the user's baseline perturbed by type-level logit noise."""
    sigma = config.score_noise[user.user_type]
    b = user.true_baseline
    logit = math.log(b / (1.0 - b)) + sigma * latent_rng.standard_normal()
    return 1.0 / (1.0 + math.exp(-logit))


def simulate_pass(user: SimUser, decide: Callable[[DecisionContext], bool],
                  calibration: CalibrationMap, latent_rng: np.random.Generator,
                  policy_rng: np.random.Generator, *, config: SimConfig,
                  factors: FactorTable, effective_limit: int,
                  timestamp: int) -> NotificationEvent | None:
    """One decision opportunity for a reachable user.

    The candidate score is always drawn (it exists upstream of the policy),
    so skips and limit gating never shift the latent stream. On a send the
    outcome resolves at min(f_true * baseline, 1), the streak advances, and
    an ignore may churn the user when churn is enabled.
    """
    raw = _draw_raw_score(latent_rng, user, config)
    calibrated = apply_calibration(calibration, raw)
    ctx = DecisionContext(user_type=user.user_type, streak=user.streak,
                          calibrated_score=calibrated, sends_today=user.sends_today,
                          effective_limit=effective_limit)
    if not decide(ctx):
        user.streak = streak_after_skip(user.streak)
        return None
    p_open = min(factors.factor(user.user_type, user.streak) * user.true_baseline, 1.0)
    outcome = 1 if policy_rng.random() < p_open else 0
    event = NotificationEvent(user_id=user.user_id, user_type=user.user_type,
                              timestamp=timestamp, raw_score=raw, outcome=outcome)
    user.streak = advance_streak(user.streak, outcome, config.streak_bounds)
    user.sends_today += 1
    if outcome:
        user.active_today = True
    elif config.churn_rate > 0.0 and policy_rng.random() < config.churn_rate:
        user.reachable = False
    return event


@dataclass
class _UserStats:
    user_type: int
    sends: int
    opens: int
    dau_days: int
    discounted_opens: float
    reachable: bool
    max_day_sends: int
    events: list[NotificationEvent] | None


def _simulate_user(config: SimConfig, index: int, decide, calibration: CalibrationMap,
                   limits: SendLimitConfig, factors: FactorTable, days: int,
                   keep_events: bool, latent_salt: int = _LATENT,
                   policy_salt: int = _POLICY) -> _UserStats:
    user, latent_rng = _spawn_user(config, index, latent_salt)
    policy_rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, index, policy_salt]))
    effective_limit = limits.effective_limit(user.user_type)
    step = SECONDS_PER_DAY // config.passes_per_day
    events: list[NotificationEvent] | None = [] if keep_events else None
    sends = opens = dau_days = 0
    max_day_sends = 0
    discounted = 0.0
    weight = 1.0
    for day in range(days):
        if not user.reachable:
            break
        user.sends_today = 0
        user.active_today = False
        for p in range(config.passes_per_day):
            if not user.reachable:
                break
            ts = day * SECONDS_PER_DAY + p * step
            event = simulate_pass(user, decide, calibration, latent_rng, policy_rng,
                                  config=config, factors=factors,
                                  effective_limit=effective_limit, timestamp=ts)
            if event is not None:
                sends += 1
                if event.outcome:
                    opens += 1
                    discounted += weight
                if events is not None:
                    events.append(event)
            weight *= config.gamma
        if user.sends_today > max_day_sends:
            max_day_sends = user.sends_today
        if user.active_today:
            dau_days += 1
    return _UserStats(user_type=user.user_type, sends=sends, opens=opens,
                      dau_days=dau_days, discounted_opens=discounted,
                      reachable=user.reachable, max_day_sends=max_day_sends,
                      events=events)


def warmup_events(config: SimConfig) -> list[NotificationEvent]:
    """Short no-filter run used to observe the score/outcome distribution.

    The warmup uses dedicated per-user sub-streams so it neither consumes
    nor duplicates the draws of the measured treatments.
    """
    events: list[NotificationEvent] = []
    identity = CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    factors_eff = apply_kappa(config.true_factors, config.kappa_true)
    for i in range(config.num_users):
        stats = _simulate_user(config, i, decide_no_filter, identity,
                               config.send_limits, factors_eff,
                               days=config.calibration_days, keep_events=True,
                               latent_salt=_WARMUP_LATENT, policy_salt=_WARMUP_POLICY)
        events.extend(stats.events)
    return events


def fit_sim_calibration(config: SimConfig,
                        events: list[NotificationEvent] | None = None) -> CalibrationMap:
    """Calibration fitted on warmup events (run fresh when not supplied)."""
    if events is None:
        events = warmup_events(config)
    return fit_isotonic([(e.raw_score, e.outcome) for e in events], window_hours=24)


def run_experiment(config: SimConfig, treatments: list[Treatment],
                   calibration: CalibrationMap | None = None,
                   keep_events: bool = False) -> ExperimentReport:
    """Run every treatment on identically-seeded populations and compare.

    Per-user streams are derived from (master_seed, user index) and results
    are aggregated in user-index order, so identical inputs give identical
    reports.
    """
    names = [t.name for t in treatments]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate treatment names in {names}")
    flagged = [t for t in treatments if t.baseline]
    if len(flagged) != 1:
        raise ValueError(f"exactly one treatment must be flagged baseline, got {len(flagged)}")
    if calibration is None:
        calibration = fit_sim_calibration(config)
    factors_eff = apply_kappa(config.true_factors, config.kappa_true)

    results = []
    max_daily = {}
    all_events: dict[str, list[NotificationEvent]] = {}
    for treatment in treatments:
        limits = config.send_limits.with_extra_adjustment(treatment.limit_adjustment)
        stats = [_simulate_user(config, i, treatment.decide, calibration, limits,
                                factors_eff, config.days, keep_events)
                 for i in range(config.num_users)]

        total_sends = sum(s.sends for s in stats)
        total_opens = sum(s.opens for s in stats)
        per_type_sends = {c: 0 for c in config.types}
        per_type_opens = {c: 0 for c in config.types}
        discounted = 0.0
        for s in stats:
            per_type_sends[s.user_type] += s.sends
            per_type_opens[s.user_type] += s.opens
            discounted += s.discounted_opens
        results.append(TreatmentResult(
            name=treatment.name,
            limit_adjustment=treatment.limit_adjustment,
            total_sends=total_sends,
            total_opens=total_opens,
            open_rate=total_opens / total_sends if total_sends else 0.0,
            dau_proxy=sum(s.dau_days for s in stats) / (config.num_users * config.days),
            reachability_proxy=sum(1 for s in stats if s.reachable) / config.num_users,
            discounted_opens=discounted / config.num_users,
            per_type_sends=per_type_sends,
            per_type_opens=per_type_opens,
            is_baseline=treatment.baseline,
        ))
        max_daily[treatment.name] = max((s.max_day_sends for s in stats), default=0)
        if keep_events:
            all_events[treatment.name] = [e for s in stats for e in s.events]

    return ExperimentReport(baseline_name=flagged[0].name, results=results,
                            max_daily_sends=max_daily,
                            events=all_events if keep_events else None)


def events_to_jsonl(events: list[NotificationEvent]) -> str:
    """Serialize events in the ingest log format, one JSON object per line."""
    lines = []
    for e in events:
        lines.append(json.dumps({
            "user_id": e.user_id, "user_type": e.user_type, "timestamp": e.timestamp,
            "raw_score": e.raw_score, "outcome": e.outcome,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
