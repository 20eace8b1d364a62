"""Deterministic synthetic-population A/B harness.

Each simulated user has a user type and a latent baseline open rate drawn
from a per-type Beta distribution; the ground-truth streak response
multiplies that baseline exactly the way the fitted behavior model assumes
it does. Every
pass draws a candidate score (a noisy signal of the user's baseline), runs
it through the calibration map and the treatment's policy, and on a send
resolves the outcome and advances the streak.

Treatments are compared with common random numbers: user i's latent stream
(type, baseline, candidate scores) is derived from (master_seed, i) and is
identical in every treatment, while outcome and churn draws live in a
separate per-user stream so that one treatment skipping a send cannot
desynchronize another treatment's candidates. Each stream is the Generator
that numpy's default_rng gives for SeedSequence([master_seed, i, salt]); a
block's seeds are computed by running numpy's SeedSequence hash over uint32
columns (`_seed_states`) and handed to PCG64, so the bits are numpy's without
building one SeedSequence per user. That is why master_seed must be >= 0
and num_users at most 2**32: each user index is one 32-bit seed word.

The loop runs over time and numpy runs over users, taken in blocks of
consecutive indices whose draws fit in BLOCK_BYTES; a block's streams are
drawn once, up front, and shared by every arm, and each arm then steps the
whole block one pass at a time (`simulate_pass`), with streak, sends today,
reachability, outcomes and churn held as arrays and the policy deciding
for the whole block in one call.

A population is a `UserBlock` (`generate_population` draws every user as
one block), and the sends of the calibration warm-up and of each kept arm
come out as an ingest `SendLog`, so they feed `fit` and `calibrate`
directly and are written with `SendLog.to_jsonl`.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Callable

import numpy as np

from . import policy
from .behavior import FactorTable, apply_kappa
from .calibrate import CalibrationMap, apply_calibration, fit_isotonic
from .core import (SendLimitConfig, advance_streak, document, integral, listed, number, per_type,
                   read_field, validate_streak_bounds)
from .ingest import SendLog
# The warm-up calls policy.decide_no_filter, not this name: perfbench's tracer
# wraps the name imported here and truth-tests each result, and a block's
# decision is an array with no truth value.
from .policy import DecisionContext, decide_no_filter  # noqa: F401

SECONDS_PER_DAY = 86400

# Cap on a block's draws, 24 bytes per user-pass (a raw score, two uniforms),
# so a block's memory is bounded at any run length. 2 MiB fits 800 users x 90
# passes in one block, paying numpy's per-call overhead once a pass, for ~2 MB.
BLOCK_BYTES = 2 << 20

# salts for the per-user streams, the last word of each user's seed
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
        # a user index is one 32-bit word of its seed (see _seed_states)
        if self.num_users > 2**32:
            raise ValueError(f"num_users must be <= 2**32, got {self.num_users}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
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
        for c, share in self.type_shares.items():
            if share > 0 and c not in self.true_factors.types:
                raise ValueError(f"type_shares gives user type {c} a share of {share}, "
                                 "but true_factors has no such type")
        for c in self.true_factors.types:
            for name, mapping in (("type_shares", self.type_shares),
                                  ("baseline_beta", self.baseline_beta),
                                  ("score_noise", self.score_noise),
                                  ("send_limits", self.send_limits.limits)):
                if c not in mapping:
                    raise ValueError(f"{name} has no entry for user type {c}")
        for c, (a, b) in self.baseline_beta.items():
            if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"baseline_beta for user type {c} must be two finite "
                                 f"numbers > 0, got ({a}, {b})")
        for c, sigma in self.score_noise.items():
            if not (sigma >= 0.0 and math.isfinite(sigma)):
                raise ValueError(f"score_noise for user type {c} must be finite and >= 0, "
                                 f"got {sigma}")

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
        if "true_factors" in document(d, "simulation config"):
            table = FactorTable.from_dict(d["true_factors"])
        else:
            ramps = read_field(d, "factor_ramps", per_type, listed, 2)
            table = ramp_factor_table(read_field(d, "streak_bounds", listed, 2, integral), ramps)
        return cls(
            num_users=read_field(d, "num_users", integral),
            days=read_field(d, "days", integral),
            passes_per_day=read_field(d, "passes_per_day", integral),
            type_shares=read_field(d, "type_shares", per_type),
            baseline_beta=read_field(d, "baseline_beta", per_type, listed, 2),
            score_noise=read_field(d, "score_noise", per_type),
            true_factors=table,
            kappa_true=read_field(d, "kappa_true", number),
            send_limits=SendLimitConfig.from_dict(read_field(d, "send_limits", document)),
            master_seed=read_field(d, "master_seed", integral),
            gamma=read_field(d, "gamma", number, default=0.9),
            churn_rate=read_field(d, "churn_rate", number, default=0.0),
            calibration_days=read_field(d, "calibration_days", integral, default=2),
        )


@dataclass
class Treatment:
    """A named policy arm; exactly one treatment must be the baseline.

    decide is called with a DecisionContext whose fields are arrays over a
    block of users and returns a boolean mask: combine conditions with & or
    numpy, not `and`.
    """

    name: str
    decide: Callable[[DecisionContext], np.ndarray]
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
    """All treatment results plus percent deltas against the baseline arm;
    events holds each arm's sends when run_experiment keeps them."""

    baseline_name: str
    results: list[TreatmentResult]
    max_daily_sends: dict[str, int] = field(default_factory=dict)
    events: dict[str, SendLog] | None = None

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["treatment", "user_type", "sends", "opens", "sends_delta_pct",
                         "opens_delta_pct"])
        for row in self.to_dict()["per_type"]:
            writer.writerow([row["treatment"], row["user_type"], row["sends"], row["opens"]]
                            + ["" if row[k] is None else f"{row[k]:.4f}"
                               for k in ("sends_delta_pct", "opens_delta_pct")])
        return buf.getvalue()


def _fmt_pct(v: float | None) -> str:
    return "n/a" if v is None else f"{v:+.2f}%"


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4


def _seed_states(master_seed: int, index: np.ndarray, salt: int) -> np.ndarray:
    """Row i is SeedSequence([master_seed, index[i], salt]).generate_state(4,
    np.uint64), the words PCG64 seeds itself from, for every index at once.

    numpy's algorithm run over columns: the entropy words (master_seed's
    little-endian 32-bit words, 0 giving [0], then the index and the salt, one
    word each below 2**32) are hashed into a pool of four words, the pool is
    mixed, and the pool is hashed out into eight words. The hash constants
    follow a fixed sequence whatever the data, so they are Python ints and
    only the words are arrays, whose uint32 arithmetic wraps modulo 2**32 as
    numpy's C does.
    """
    words = []
    rest = int(master_seed)
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    n = len(index)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy += [index.astype(np.uint32), np.full(n, salt, dtype=np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # each 64-bit word is two 32-bit words, low word first
    return np.stack([state[i] | (state[i + 1] << np.uint64(32))
                     for i in range(0, len(state), 2)], axis=1)


@cache
def _seed_state_type() -> type:
    """numpy's public ISeedSequence, subclassed to hand PCG64 one row of
    `_seed_states` as its generated state; PCG64 reads the row as four
    contiguous uint64 words and seeds itself from them. Defined on first
    use: numpy imports numpy.random lazily and only the simulator draws, so
    the other commands never pay its memory and import time."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


@dataclass
class UserBlock:
    """Everything drawn for a block of consecutive users, shared by every arm.

    Row j is user index[j]. raw_scores holds one candidate score per pass;
    uniforms is the user's policy stream, two draws per pass (an outcome
    and a churn draw at most), read left to right.
    """

    index: np.ndarray
    rows: np.ndarray  # position of each user's type in config.types
    user_type: np.ndarray
    baseline: np.ndarray
    raw_scores: np.ndarray
    uniforms: np.ndarray


def _draw_block(config: SimConfig, start: int, stop: int, passes: int,
                latent_salt: int, policy_salt: int) -> UserBlock:
    """Draw users start..stop-1: from the latent stream a type, a baseline and
    one standard normal per pass, and from the policy stream 2 * passes
    uniforms. User i's streams are the generators numpy's default_rng gives
    for SeedSequence([master_seed, i, salt]), so a user's draws depend
    neither on the block it lands in nor on how its seed is derived."""
    n = stop - start
    index = np.arange(start, stop)
    latent_seeds = _seed_states(config.master_seed, index, latent_salt)
    policy_seeds = _seed_states(config.master_seed, index, policy_salt)
    cum_shares = list(accumulate(config.type_shares[c] for c in config.types))
    last = len(config.types) - 1
    seed_state = _seed_state_type()
    rows = np.empty(n, dtype=np.intp)
    baseline = np.empty(n)
    raw = np.empty((n, passes))
    uniforms = np.empty((n, 2 * passes))
    for j in range(n):
        latent_rng = np.random.Generator(np.random.PCG64(seed_state(latent_seeds[j])))
        # the first type whose cumulative share exceeds the draw, else the last
        row = min(bisect_right(cum_shares, latent_rng.random()), last)
        user_type = config.types[row]
        alpha, beta = config.baseline_beta[user_type]
        b = min(max(float(latent_rng.beta(alpha, beta)), 1e-6), 1.0 - 1e-6)
        rows[j] = row
        baseline[j] = b
        # candidate score: the baseline perturbed by type-level logit noise,
        # 1 / (1 + exp(-logit)); math rather than numpy log and exp, whose
        # vectorized kernels can differ from them in the last bit
        logit = math.log(b / (1.0 - b)) \
            + config.score_noise[user_type] * latent_rng.standard_normal(passes)
        raw[j] = list(map(math.exp, (-logit).tolist()))
        policy_rng = np.random.Generator(np.random.PCG64(seed_state(policy_seeds[j])))
        uniforms[j] = policy_rng.random(2 * passes)
    raw += 1.0
    np.divide(1.0, raw, out=raw)
    return UserBlock(index=index, rows=rows,
                     user_type=np.array(config.types)[rows], baseline=baseline,
                     raw_scores=raw, uniforms=uniforms)


def generate_population(config: SimConfig) -> UserBlock:
    """Every user's draws for a run of config.days, as one block in
    user-index order; same seed, same population."""
    return _draw_block(config, 0, config.num_users, config.days * config.passes_per_day,
                       _LATENT, _POLICY)


@dataclass
class BlockState:
    """One arm's mutable state for a block of users, one entry per user."""

    block: UserBlock
    effective_limit: np.ndarray
    streak: np.ndarray
    sends_today: np.ndarray
    active_today: np.ndarray
    reachable: np.ndarray
    cursor: np.ndarray  # next unread column of block.uniforms

    @classmethod
    def start(cls, block: UserBlock, effective_limit: np.ndarray) -> "BlockState":
        n = len(block.index)
        return cls(block=block, effective_limit=effective_limit,
                   streak=np.zeros(n, dtype=np.int64), sends_today=np.zeros(n, dtype=np.int64),
                   active_today=np.zeros(n, dtype=bool), reachable=np.ones(n, dtype=bool),
                   cursor=np.zeros(n, dtype=np.intp))


def simulate_pass(state: BlockState, decide: Callable[[DecisionContext], np.ndarray],
                  calibrated: np.ndarray, *, factors: np.ndarray, bounds: tuple[int, int],
                  churn_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One decision opportunity for every user of a block.

    calibrated holds each user's calibrated candidate score for this pass;
    factors is the effective ground-truth factor array, one row per type.
    The policy sees the whole block at once and only reachable users can be
    sent to. On a send the outcome resolves at min(f_true * baseline, 1),
    the streak advances, and an ignore may churn the user when churn is
    enabled; a skip leaves the streak as it was. Returns the block rows sent
    to, ascending, and whether each of those sends was opened.
    """
    ctx = DecisionContext(user_type=state.block.user_type, streak=state.streak,
                          calibrated_score=calibrated, sends_today=state.sends_today,
                          effective_limit=state.effective_limit)
    sent = np.flatnonzero(decide(ctx) & state.reachable)
    streak = state.streak[sent]
    p_open = np.minimum(factors[state.block.rows[sent], streak - bounds[0]]
                        * state.block.baseline[sent], 1.0)
    opened = state.block.uniforms[sent, state.cursor[sent]] < p_open
    state.cursor[sent] += 1
    state.streak[sent] = advance_streak(streak, opened, bounds)
    state.sends_today[sent] += 1
    state.active_today[sent[opened]] = True
    if churn_rate > 0.0:
        ignored = sent[~opened]
        churned = state.block.uniforms[ignored, state.cursor[ignored]] < churn_rate
        state.cursor[ignored] += 1
        state.reachable[ignored[churned]] = False
    return sent, opened


def _events(log: tuple[list[np.ndarray], ...], passes_per_day: int) -> SendLog:
    """One arm's kept sends (user index, user type, pass, raw score, outcome)
    as a SendLog, whose rows `SendLog.from_rows` orders by user and then time,
    stably. Pass p of day d is stamped d days plus p / passes_per_day of a
    day; user ids are u{index:07d}, which sort in index order up to 10**7."""
    index, user_type, t, raw, outcome = (np.concatenate(col) for col in log)
    step = SECONDS_PER_DAY // passes_per_day
    ts = (t // passes_per_day) * SECONDS_PER_DAY + (t % passes_per_day) * step
    return SendLog.from_rows([f"u{i:07d}" for i in index.tolist()], user_type, ts,
                             raw, outcome)


def _run_block(block: UserBlock, calibrated: np.ndarray, decide, effective_limit: np.ndarray,
               log: tuple[list[np.ndarray], ...] | None, *, config: SimConfig,
               factors: np.ndarray, days: int, weights: list[float]) -> dict:
    """Step one arm through every pass of one block and return its per-user
    columns by name; its sends are appended to log unless it is None."""
    state = BlockState.start(block, effective_limit)
    sends, opens, active_days, max_day_sends = (np.zeros_like(block.index) for _ in range(4))
    discounted = np.zeros(len(block.index))
    passes = config.passes_per_day
    for day in range(days):
        # a churned user's counters stay at zero from here on
        state.sends_today[:] = 0
        state.active_today[:] = False
        for p in range(passes):
            t = day * passes + p
            sent, opened = simulate_pass(state, decide, calibrated[:, t], factors=factors,
                                         bounds=config.streak_bounds,
                                         churn_rate=config.churn_rate)
            openers = sent[opened]
            opens[openers] += 1
            # each user's discounted opens add up in pass order
            discounted[openers] += weights[t]
            if log is not None:
                for col, values in zip(log, (
                        block.index[sent], block.user_type[sent], np.full(len(sent), t),
                        block.raw_scores[sent, t], opened)):
                    col.append(values)
        sends += state.sends_today
        active_days += state.active_today
        np.maximum(max_day_sends, state.sends_today, out=max_day_sends)
    return dict(row=block.rows, sends=sends, opens=opens, discounted=discounted,
                active_days=active_days, max_day_sends=max_day_sends, reachable=state.reachable)


def _simulate(config: SimConfig, arms: list[tuple[Callable, SendLimitConfig]],
              calibration: CalibrationMap, *, days: int, keep_events: bool,
              latent_salt: int = _LATENT, policy_salt: int = _POLICY) -> tuple[list, list]:
    """Run every (decide, limits) arm over blocks of users holding at most
    BLOCK_BYTES of draws, or one user: each block's draws are made once and
    every arm steps through all its passes before the next block is drawn.
    Returns each arm's per-user columns, in user-index order, and each
    arm's kept sends as lists of arrays, or None."""
    factors = apply_kappa(config.true_factors, config.kappa_true).factors
    passes = days * config.passes_per_day
    weights = []
    weight = 1.0
    for _ in range(passes):
        weights.append(weight)
        weight *= config.gamma
    limits = [np.array([lim.effective_limit(c) for c in config.types]) for _, lim in arms]
    blocks = [[] for _ in arms]
    logs = [([], [], [], [], []) if keep_events else None for _ in arms]
    size = max(1, BLOCK_BYTES // (24 * passes))
    for start in range(0, config.num_users, size):
        stop = min(start + size, config.num_users)
        block = _draw_block(config, start, stop, passes, latent_salt, policy_salt)
        calibrated = apply_calibration(calibration, block.raw_scores)
        for (decide, _), limit, arm_blocks, log in zip(arms, limits, blocks, logs):
            arm_blocks.append(_run_block(block, calibrated, decide, limit[block.rows], log,
                                         config=config, factors=factors, days=days,
                                         weights=weights))
    return [{key: np.concatenate([cols[key] for cols in arm]) for key in arm[0]}
            for arm in blocks], logs


def warmup_events(config: SimConfig) -> SendLog:
    """Sends of the short no-filter run used to observe the score/outcome
    distribution, on dedicated per-user sub-streams so it neither consumes
    nor duplicates the draws of the measured treatments."""
    identity = CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    _, (log,) = _simulate(config, [(policy.decide_no_filter, config.send_limits)], identity,
                          days=config.calibration_days, keep_events=True,
                          latent_salt=_WARMUP_LATENT, policy_salt=_WARMUP_POLICY)
    return _events(log, config.passes_per_day)


def fit_sim_calibration(config: SimConfig, log: SendLog | None = None) -> CalibrationMap:
    """Calibration fitted on the warm-up's sends (run fresh when not supplied)."""
    if log is None:
        log = warmup_events(config)
    return fit_isotonic(log.raw_score, log.outcome, window_hours=24)


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

    arms = [(t.decide, config.send_limits.with_extra_adjustment(t.limit_adjustment))
            for t in treatments]
    columns, logs = _simulate(config, arms, calibration, days=config.days,
                              keep_events=keep_events)
    n = config.num_users
    results = []
    for treatment, col in zip(treatments, columns):
        # float weights count exactly below 2**53
        sends, opens = (np.bincount(col["row"], col[key], len(config.types)).astype(np.int64)
                        for key in ("sends", "opens"))
        total_sends = int(sends.sum())
        total_opens = int(opens.sum())
        results.append(TreatmentResult(
            name=treatment.name,
            limit_adjustment=treatment.limit_adjustment,
            total_sends=total_sends,
            total_opens=total_opens,
            open_rate=total_opens / total_sends if total_sends else 0.0,
            dau_proxy=int(col["active_days"].sum()) / (n * config.days),
            reachability_proxy=int(col["reachable"].sum()) / n,
            # one user at a time in index order; np.sum's pairwise order moves bits
            discounted_opens=float(np.cumsum(col["discounted"])[-1]) / n,
            per_type_sends=dict(zip(config.types, sends.tolist())),
            per_type_opens=dict(zip(config.types, opens.tolist())),
            is_baseline=treatment.baseline,
        ))
    return ExperimentReport(
        baseline_name=flagged[0].name, results=results,
        max_daily_sends={t.name: int(col["max_day_sends"].max())
                         for t, col in zip(treatments, columns)},
        events={t.name: _events(log, config.passes_per_day)
                for t, log in zip(treatments, logs)} if keep_events else None)
