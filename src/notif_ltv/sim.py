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
consecutive indices whose draws fit in BLOCK_BYTES. A block's streams are
drawn once, up front, one user at a time, and the score transform then runs
once over the whole block. The draws are shared by every arm, and all arms
step the block together one pass at a time (`simulate_pass`): streak, sends
today, reachability and the stream cursor are one (arms, users) array each,
and outcomes and churn resolve in one step over every arm's sends.

A treatment's `decide` is called a few times per block, never per pass: its
answers are tabulated as a send threshold per (arm, type, streak), and each
pass decides every arm with one gather from that table and one compare.
That holds because a calibrated score is always one of the calibration
map's run values and `decide` must be a threshold rule, elementwise over
the block: for a fixed type and streak, if it sends at one calibrated score
it sends at every higher one, and sends today and the effective limit
enter only through `sends_today < effective_limit`. `decide_no_filter`,
`decide_heuristic` (score > k) and `decide_rl` (score >= threshold) are
such rules. A rule reading the score's value cannot tell -0.0 from +0.0,
so comparing values against the table is exact.

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
from .solver import NEVER_SEND

SECONDS_PER_DAY = 86400

# Cap on a block's draws, 24 bytes per user-pass (a raw score, two uniforms),
# so a block's memory is bounded at any run length; the calibrated copy of the
# scores adds 8 bytes more, and the open-probability table 8 bytes per user
# and streak, whatever the run length. 2 MiB fits 800 users x 90 passes in one
# block, paying numpy's per-call overhead once a pass for all arms, for ~2 MB.
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
    numpy, not `and`. It must be a threshold rule, elementwise over the
    block: for a fixed type and streak, if it sends at one calibrated score
    it sends at every higher one, and sends_today and effective_limit enter
    only through sends_today < effective_limit. The simulator calls it a few
    times per block, on a grid of the block's types and every streak, to
    tabulate the threshold, and never per pass.
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
    logit = np.empty(n)
    noise = np.empty(n)
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
        logit[j] = math.log(b / (1.0 - b))
        noise[j] = config.score_noise[user_type]
        latent_rng.standard_normal(out=raw[j])
        policy_rng = np.random.Generator(np.random.PCG64(seed_state(policy_seeds[j])))
        policy_rng.random(out=uniforms[j])
    # candidate score: the baseline perturbed by type-level logit noise,
    # 1 / (1 + exp(-logit)), for the whole block at once; math.exp rather
    # than np.exp, whose vectorized kernel can differ from it in the last bit
    raw *= noise[:, None]
    raw += logit[:, None]
    np.negative(raw, out=raw)
    raw = np.fromiter(map(math.exp, memoryview(raw.reshape(-1))), float,
                      count=raw.size).reshape(n, passes)
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


def _send_thresholds(decides: list[Callable[[DecisionContext], np.ndarray]],
                    run_values: np.ndarray, block: UserBlock, *, types: int,
                    bounds: tuple[int, int]) -> np.ndarray:
    """Each arm's send threshold, an (arms, types, streaks) array: the
    smallest of the ascending run_values at which the arm's decide sends to
    a user of that type row and streak under the limit, or NEVER_SEND where
    it sends at none.

    Only the rows of types the block holds are evaluated; the others stay
    NEVER_SEND. Each arm's decide is a threshold rule, so one bisection over
    run indices finds every cell's threshold at once, in
    ceil(log2(len(run_values) + 1)) calls on the grid of (present type,
    streak) cells: the probes step down the powers of two, and a cell moves
    past a probe that does not send.
    """
    lo, hi = bounds
    streaks = hi - lo + 1
    present, first = np.unique(block.rows, return_index=True)
    cell_type = np.repeat(block.user_type[first], streaks)
    cell_streak = np.tile(np.arange(lo, hi + 1), len(present))
    cells = len(cell_type)
    sends_today, limit = np.zeros(cells, dtype=np.int64), np.ones(cells, dtype=np.int64)
    runs = len(run_values)
    thresholds = np.append(run_values, NEVER_SEND)
    table = np.full((len(decides), types, streaks), NEVER_SEND)
    for arm, decide in enumerate(decides):
        skipped = np.zeros(cells, dtype=np.intp)  # run values below never send
        step = 1 << (runs.bit_length() - 1)
        while step:
            probe = skipped + (step - 1)
            sends = decide(DecisionContext(
                user_type=cell_type, streak=cell_streak,
                calibrated_score=run_values.take(probe, mode="clip"),
                sends_today=sends_today, effective_limit=limit))
            skipped[(probe < runs) & np.logical_not(sends)] += step
            step >>= 1
        table[arm, present] = thresholds[skipped].reshape(len(present), streaks)
    return table


@dataclass
class BlockState:
    """Every arm's mutable state for a block of users: one (arms, users)
    array per field, row a holding arm a's entry for each user, and the
    lookups every pass reads, built once per block."""

    block: UserBlock
    effective_limit: np.ndarray
    thresholds: np.ndarray  # _send_thresholds, flattened
    offset: np.ndarray  # (arm * types + row) * streaks - lo: plus a streak, its threshold
    p_open: np.ndarray  # (users, streaks) open probability, min(f_true * baseline, 1)
    streak: np.ndarray
    sends_today: np.ndarray
    active_today: np.ndarray
    reachable: np.ndarray
    cursor: np.ndarray  # next unread column of block.uniforms

    @classmethod
    def start(cls, block: UserBlock, effective_limit: np.ndarray,
              decides: list[Callable[[DecisionContext], np.ndarray]], run_values: np.ndarray,
              *, factors: np.ndarray, bounds: tuple[int, int]) -> "BlockState":
        """Fresh state for the arms whose policies are decides and whose
        limits are the (arms, users) effective_limit. run_values are every
        calibrated score the block's passes can hold, ascending, and factors
        the effective ground-truth factor array, one row per type."""
        shape = effective_limit.shape
        types, streaks = factors.shape
        thresholds = _send_thresholds(decides, run_values, block, types=types, bounds=bounds)
        offset = (np.arange(shape[0])[:, None] * types + block.rows) * streaks - bounds[0]
        return cls(block=block, effective_limit=effective_limit,
                   thresholds=thresholds.reshape(-1), offset=offset,
                   p_open=np.minimum(factors[block.rows] * block.baseline[:, None], 1.0),
                   streak=np.zeros(shape, dtype=np.int64),
                   sends_today=np.zeros(shape, dtype=np.int64),
                   active_today=np.zeros(shape, dtype=bool), reachable=np.ones(shape, dtype=bool),
                   cursor=np.zeros(shape, dtype=np.intp))


def simulate_pass(state: BlockState, calibrated: np.ndarray, *, bounds: tuple[int, int],
                  churn_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One decision opportunity for every user of a block in every arm.

    calibrated holds each user's calibrated candidate score for this pass,
    the same in every arm, each one of the run values the state's
    thresholds were tabulated over. An arm sends where the score reaches
    its threshold for the user's type and streak, the user is under the
    limit and is reachable. On a send the outcome resolves at
    min(f_true * baseline, 1), the streak advances, and an ignore may churn
    the user when churn is enabled; a skip leaves the streak as it was. The
    sends of all arms step together over the flattened state. Returns the
    flat indices arm * users + row sent to, ascending, and whether each of
    those sends was opened.
    """
    block = state.block
    n = state.streak.shape[1]
    send = calibrated >= state.thresholds.take(state.offset + state.streak)
    send &= state.sends_today < state.effective_limit
    send &= state.reachable
    sent = np.flatnonzero(send)
    user = sent % n
    streak, cursor = state.streak.reshape(-1), state.cursor.reshape(-1)
    before = streak[sent]
    streaks = state.p_open.shape[1]
    p_open = state.p_open.take(user * streaks + (before - bounds[0]))
    opened = block.uniforms[user, cursor[sent]] < p_open
    cursor[sent] += 1
    streak[sent] = advance_streak(before, opened, bounds)
    state.sends_today.reshape(-1)[sent] += 1
    state.active_today.reshape(-1)[sent[opened]] = True
    if churn_rate > 0.0:
        ignored = sent[~opened]
        churned = block.uniforms[user[~opened], cursor[ignored]] < churn_rate
        cursor[ignored] += 1
        state.reachable.reshape(-1)[ignored[churned]] = False
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


def _run_block(state: BlockState, calibrated: np.ndarray,
               logs: list[tuple[list[np.ndarray], ...]] | None, *, config: SimConfig,
               days: int, weights: list[float]) -> dict:
    """Step every arm of a fresh state through every pass of its block and
    return the per-user columns by name, (arms, users) except the shared
    row; arm a's sends are appended to logs[a] unless logs is None."""
    block = state.block
    arms, n = state.streak.shape
    sends, opens, active_days, max_day_sends = (np.zeros((arms, n), dtype=np.int64)
                                                for _ in range(4))
    discounted = np.zeros((arms, n))
    flat_opens, flat_discounted = opens.reshape(-1), discounted.reshape(-1)
    arm_starts = n * np.arange(arms + 1)
    passes = config.passes_per_day
    for day in range(days):
        # a churned user's counters stay at zero from here on
        state.sends_today[:] = 0
        state.active_today[:] = False
        for p in range(passes):
            t = day * passes + p
            sent, opened = simulate_pass(state, calibrated[:, t], bounds=config.streak_bounds,
                                         churn_rate=config.churn_rate)
            openers = sent[opened]
            flat_opens[openers] += 1
            # each user's discounted opens add up in pass order
            flat_discounted[openers] += weights[t]
            if logs is not None:
                cuts = np.searchsorted(sent, arm_starts)
                for arm, log in enumerate(logs):
                    lo, hi = cuts[arm], cuts[arm + 1]
                    row = sent[lo:hi] - arm_starts[arm]
                    for col, values in zip(log, (
                            block.index[row], block.user_type[row], np.full(len(row), t),
                            block.raw_scores[row, t], opened[lo:hi])):
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
    all arms step through its passes together before the next block is
    drawn. Returns each arm's per-user columns, in user-index order, and
    a list of each arm's kept sends as lists of arrays, or None."""
    factors = apply_kappa(config.true_factors, config.kappa_true).factors
    passes = days * config.passes_per_day
    weights = []
    weight = 1.0
    for _ in range(passes):
        weights.append(weight)
        weight *= config.gamma
    decides = [decide for decide, _ in arms]
    limits = np.array([[lim.effective_limit(c) for c in config.types] for _, lim in arms])
    blocks = []
    logs = [([], [], [], [], []) for _ in arms] if keep_events else None
    size = max(1, BLOCK_BYTES // (24 * passes))
    for start in range(0, config.num_users, size):
        stop = min(start + size, config.num_users)
        block = _draw_block(config, start, stop, passes, latent_salt, policy_salt)
        calibrated = apply_calibration(calibration, block.raw_scores)
        state = BlockState.start(block, limits[:, block.rows], decides, calibration.run_values,
                                 factors=factors, bounds=config.streak_bounds)
        blocks.append(_run_block(state, calibrated, logs, config=config, days=days,
                                 weights=weights))
    columns = {key: np.concatenate([cols[key] for cols in blocks], axis=-1) for key in blocks[0]}
    return [{key: col if key == "row" else col[arm] for key, col in columns.items()}
            for arm in range(len(arms))], logs


def _warmup(config: SimConfig) -> tuple[list[np.ndarray], ...]:
    """Kept sends of the short no-filter run used to observe the
    score/outcome distribution, as `_events` columns, on dedicated per-user
    sub-streams so it neither consumes nor duplicates the draws of the
    measured treatments."""
    identity = CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    _, (log,) = _simulate(config, [(policy.decide_no_filter, config.send_limits)], identity,
                          days=config.calibration_days, keep_events=True,
                          latent_salt=_WARMUP_LATENT, policy_salt=_WARMUP_POLICY)
    return log


def warmup_events(config: SimConfig) -> SendLog:
    """Sends of the calibration warm-up as a SendLog."""
    return _events(_warmup(config), config.passes_per_day)


def fit_sim_calibration(config: SimConfig) -> CalibrationMap:
    """Calibration fitted on a fresh warm-up's sends, from its columns in
    pass order: the fit sorts scores stably and pools each tie group's 0/1
    outcomes as exact sums, so the map equals the fit on the columns of
    `warmup_events(config)`."""
    *_, raw, outcome = _warmup(config)
    return fit_isotonic(np.concatenate(raw), np.concatenate(outcome))


def check_treatments(treatments: list[Treatment]) -> None:
    """Raise ValueError unless the names differ and exactly one treatment is
    the baseline."""
    names = [t.name for t in treatments]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate treatment names in {names}")
    flagged = sum(t.baseline for t in treatments)
    if flagged != 1:
        raise ValueError(f"exactly one treatment must be flagged baseline, got {flagged}")


def run_experiment(config: SimConfig, treatments: list[Treatment],
                   calibration: CalibrationMap | None = None,
                   keep_events: bool = False) -> ExperimentReport:
    """Run every treatment on identically-seeded populations and compare.

    Per-user streams are derived from (master_seed, user index) and results
    are aggregated in user-index order, so identical inputs give identical
    reports.
    """
    check_treatments(treatments)
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
        baseline_name=next(t.name for t in treatments if t.baseline), results=results,
        max_daily_sends={t.name: int(col["max_day_sends"].max())
                         for t, col in zip(treatments, columns)},
        events={t.name: _events(log, config.passes_per_day)
                for t, log in zip(treatments, logs)} if keep_events else None)
