"""Deterministic synthetic-population A/B harness.

Each simulated user has a user type and a latent baseline open rate drawn
from a per-type Beta distribution; the ground-truth streak response
multiplies that baseline exactly the way the fitted behavior model assumes
it does. Every
pass draws a candidate score (a noisy signal of the user's baseline), sends
where its calibrated value reaches the treatment's threshold, and on a send
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

The simulation loop, `_simulate`, runs over time and numpy runs over users,
taken in blocks of consecutive indices whose draws fit in BLOCK_BYTES. A
block's streams are drawn once, up front: the loop over its users makes only
the stream draws, and the baseline's clamp, its logit and the score noise are
block steps that give each user's bits. The draws are shared by every arm,
and all arms step the block together one pass at a time (`simulate_pass`):
streak, sends today, reachability and the stream cursor are one (arms,
users) array each, and outcomes and churn resolve in one step over every
arm's sends. A block records who each pass sent to and which sends opened in
two masks; every kept send and every per-user column of the table that
`run_experiment` sums is read off them.

A treatment's policy is a `PolicyTable`, one send threshold per (type,
streak) on the calibrated scale. Each block looks up every arm's thresholds
once into one (arm, type, streak) array and maps each through the
calibration to the least raw score that reaches it (`score_thresholds`),
so no score is ever calibrated: each pass decides every arm with one
gather from that array and one compare of raw scores. A pass compares the
approximate scores 1 / (1 + np.exp(-logit)), computed once per block, and
recomputes the exact math.exp score only where the approximation lies
within _NEAR of the threshold; the two differ by a few ulps at most, so
every decision is the exact score's. Exact scores are computed only there
and for kept sends, whose raw_score column holds them.

A population is drawn one `UserBlock` at a time (`_draw_block`), and the
sends of the calibration warm-up and of each kept arm come out as an ingest
`SendLog`, so they feed `fit` and `calibrate` directly and are written with
`SendLog.to_jsonl`.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from . import policy
from .behavior import FactorTable, apply_kappa
from .calibrate import CalibrationMap, fit_isotonic, score_thresholds
# The simulator maps thresholds, not scores; perfbench's tracer wraps this name.
from .calibrate import apply_calibration  # noqa: F401
from .core import (SendLimitConfig, advance_streak, document, integral, listed, number, per_type,
                   read_field, validate_streak_bounds)
from .ingest import SendLog
# The simulator calls no decide_* function; perfbench's tracer wraps this name.
from .policy import decide_no_filter  # noqa: F401
from .solver import NEVER_SEND, PolicyTable

SECONDS_PER_DAY = 86400

# Cap on a block's draws, 24 bytes per user-pass (a logit, two uniforms), so
# a block's memory is bounded at any run length; the approximate scores add 8
# bytes more, the send and open masks 2 bytes per user-pass per arm, and the
# open-probability table 8 bytes per user and streak. 2 MiB fits
# 800 users x 90 passes in one block, paying numpy's per-call overhead once a
# pass for all arms, for ~2 MB.
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
    ends = np.array([ramps[c] for c in types], dtype=float).reshape(-1, 2)
    s = np.arange(lo, hi + 1)
    # both branches run at every streak; like Python floats, inf or nan is silent
    with np.errstate(all="ignore"):
        factors = np.where(s > 0, 1.0 + (s / hi) * (ends[:, 1:] - 1.0),
                           np.where(s < 0, 1.0 + (s / lo) * (ends[:, :1] - 1.0), 1.0))
    counts = np.zeros(factors.shape, dtype=np.int64)
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
        # one user's draws must fit one block, and each pass of a day needs its own second
        if max(self.days, self.calibration_days) * self.passes_per_day > BLOCK_BYTES // 24 \
                or self.passes_per_day > SECONDS_PER_DAY:
            raise ValueError(f"passes_per_day must be <= {SECONDS_PER_DAY} and max(days, "
                             f"calibration_days) * passes_per_day <= {BLOCK_BYTES // 24}")
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
            gamma=read_field(d, "gamma", number, default=cls.gamma),
            churn_rate=read_field(d, "churn_rate", number, default=cls.churn_rate),
            calibration_days=read_field(d, "calibration_days", integral,
                                        default=cls.calibration_days),
        )


@dataclass
class Treatment:
    """A named policy arm; exactly one treatment must be the baseline.

    The arm sends where the calibrated score reaches table's threshold for
    the user's type and streak and the user is under the daily limit:
    `policy.NO_FILTER`, `HeuristicThresholds.table` or a solved table.
    """

    name: str
    table: PolicyTable
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

    def deltas(self, name: str) -> dict[str, float | None]:
        r = self.result(name)
        b = self.result(self.baseline_name)
        return {
            "total_sends": _pct_delta(r.total_sends, b.total_sends),
            "open_rate": _pct_delta(r.open_rate, b.open_rate),
            "dau_proxy": _pct_delta(r.dau_proxy, b.dau_proxy),
            "reachability_proxy": _pct_delta(r.reachability_proxy, b.reachability_proxy),
            "discounted_opens": _pct_delta(r.discounted_opens, b.discounted_opens),
        }

    def to_dict(self) -> dict:
        base = self.result(self.baseline_name)
        treatments = []
        per_type = []
        for r in self.results:
            # every field but the per-type dicts, which the per_type rows hold
            entry = {k: v for k, v in vars(r).items() if not k.startswith("per_type_")}
            treatments.append({**entry, "deltas": self.deltas(r.name)})
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


def _logistic(logits: np.ndarray) -> np.ndarray:
    """The exact candidate scores 1 / (1 + exp(-logit)), elementwise, with
    math.exp rather than np.exp, whose vectorized kernel can differ from it
    in the last bits. Where exp(-logit) overflows the score is 0.0, the IEEE
    value of 1 / (1 + inf) that np.exp gives."""
    neg = np.negative(logits).reshape(-1).tolist()
    e = np.fromiter(map(_exp_or_inf, neg), float, count=len(neg))
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(np.shape(logits))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass
class UserBlock:
    """Everything drawn for a block of consecutive users, shared by every arm.

    Row j is user index[j]. logits holds the logit of one candidate score
    per pass; uniforms is the user's policy stream, two draws per pass (an
    outcome and a churn draw at most), read left to right.
    """

    index: np.ndarray
    rows: np.ndarray  # position of each user's type in config.types
    user_type: np.ndarray
    baseline: np.ndarray
    logits: np.ndarray
    uniforms: np.ndarray


def _draw_block(config: SimConfig, start: int, stop: int, passes: int,
                latent_salt: int, policy_salt: int) -> UserBlock:
    """Draw users start..stop-1: from the latent stream a type, a baseline and
    one standard normal per pass, and from the policy stream 2 * passes
    uniforms. User i's streams are the generators numpy's default_rng gives
    for SeedSequence([master_seed, i, salt]), so a user's draws depend
    neither on the block it lands in nor on how its seed is derived. The
    loop over users makes only these stream draws; the baseline's clamp, its
    logit and the score noise are block steps that give each user's bits."""
    n = stop - start
    index = np.arange(start, stop)
    latent_seeds = _seed_states(config.master_seed, index, latent_salt)
    policy_seeds = _seed_states(config.master_seed, index, policy_salt)
    cum_shares = list(accumulate(config.type_shares[c] for c in config.types))
    last = len(config.types) - 1
    shapes = [config.baseline_beta[c] for c in config.types]
    seed_state = _seed_state_type()
    rows = np.empty(n, dtype=np.intp)
    baseline = np.empty(n)
    logits = np.empty((n, passes))
    uniforms = np.empty((n, 2 * passes))
    for j in range(n):
        latent_rng = np.random.Generator(np.random.PCG64(seed_state(latent_seeds[j])))
        # the first type whose cumulative share exceeds the draw, else the last
        row = rows[j] = min(bisect_right(cum_shares, latent_rng.random()), last)
        baseline[j] = latent_rng.beta(*shapes[row])
        latent_rng.standard_normal(out=logits[j])
        policy_rng = np.random.Generator(np.random.PCG64(seed_state(policy_seeds[j])))
        policy_rng.random(out=uniforms[j])
    np.clip(baseline, 1e-6, 1.0 - 1e-6, out=baseline)
    with np.errstate(over="ignore"):  # a huge noise: an infinite logit, as with Python floats
        logits *= np.array([config.score_noise[c] for c in config.types])[rows, None]
    # math.log, as np.log's vector kernel can differ from it in the last bit
    logits += np.fromiter(map(math.log, (baseline / (1.0 - baseline)).tolist()), float)[:, None]
    return UserBlock(index=index, rows=rows,
                     user_type=np.array(config.types)[rows], baseline=baseline,
                     logits=logits, uniforms=uniforms)


# a pass decides on np.exp's approximate score and recomputes the exact one
# where the two could fall on either side of a threshold: they differ by a
# few ulps at most, far less than this
_NEAR = 2.0 ** -30


@dataclass
class BlockState:
    """Every arm's mutable state for a block of users, one (arms, users)
    array per field with row a for arm a, and the lookups every pass reads,
    built once per block. `_simulate`, the simulation loop, steps it one
    pass at a time and reads each block's columns off the sends and opens
    the passes return."""

    block: UserBlock
    scores: np.ndarray  # (passes, users) approximate scores, 1 / (1 + np.exp(-logit))
    effective_limit: np.ndarray
    thresholds: np.ndarray  # (arms, types, streaks) least raw score that sends, flattened
    offset: np.ndarray  # (arm * types + row) * streaks - lo: plus a streak, its threshold
    p_open: np.ndarray  # (users, streaks) open probability, min(f_true * baseline, 1), flattened
    open_offset: np.ndarray  # flat (arms, users) row * streaks - lo: plus a streak, its p_open
    advance: np.ndarray  # the streak after a send, at (2 * streak + opened) mod its length
    streak: np.ndarray
    sends_today: np.ndarray
    reachable: np.ndarray
    cursor: np.ndarray  # position of the next unread uniform in the flattened block.uniforms

    @classmethod
    def start(cls, block: UserBlock, effective_limit: np.ndarray, tables: list[PolicyTable],
              calibration: CalibrationMap, truth: FactorTable) -> "BlockState":
        """Fresh state for the arms whose policies are tables and whose
        limits are the (arms, users) effective_limit; truth is the effective
        ground-truth factor table, whose rows block.rows index and whose
        streak bounds the streaks step within.

        Each threshold is mapped through the calibration once, to the least
        raw score that reaches it (`score_thresholds`), so a pass compares
        raw scores. Only the types the block holds are looked up, so a table
        without a row for one of them raises KeyError; the other rows never
        send.
        """
        shape = effective_limit.shape
        types, streaks = truth.factors.shape
        lo, hi = truth.bounds
        present, first = np.unique(block.rows, return_index=True)
        cells = np.ix_(block.user_type[first], np.arange(lo, hi + 1))
        thresholds = np.full((len(tables), types, streaks), NEVER_SEND)
        for arm, table in enumerate(tables):
            thresholds[arm, present] = table.threshold(*cells)
        offset = (np.arange(shape[0])[:, None] * types + block.rows) * streaks - lo
        # every (streak, outcome) pair, at the key a pass computes for it
        s, opened = np.repeat(np.arange(lo, hi + 1), 2), np.tile([False, True], streaks)
        advance = np.empty(2 * streaks, dtype=np.int64)
        advance[(2 * s + opened) % advance.size] = advance_streak(s, opened, truth.bounds)
        # pass-major, so each pass reads one contiguous row
        with np.errstate(over="ignore"):  # exp(-logit) overflows to inf, the score to 0.0
            scores = np.exp(np.negative(block.logits.T, order="C"))
        scores += 1.0
        user = np.broadcast_to(np.arange(len(block.index)), shape)
        return cls(block=block, scores=np.divide(1.0, scores, out=scores),
                   effective_limit=effective_limit,
                   thresholds=score_thresholds(calibration, thresholds).reshape(-1),
                   offset=offset,
                   p_open=np.minimum(truth.factors[block.rows] * block.baseline[:, None],
                                     1.0).reshape(-1),
                   open_offset=(user * streaks - lo).reshape(-1), advance=advance,
                   streak=np.zeros(shape, dtype=np.int64),
                   sends_today=np.zeros(shape, dtype=np.int64),
                   reachable=np.ones(shape, dtype=bool),
                   cursor=user * block.uniforms.shape[1])


def simulate_pass(state: BlockState, t: int, *, churn_rate: float) -> tuple[np.ndarray,
                                                                           np.ndarray]:
    """Pass t of the block, one decision opportunity for every user in every
    arm.

    An arm sends where the user's candidate score for the pass, the same in
    every arm, reaches its raw threshold for the user's type and streak, the
    user is under the limit and is reachable. The score is the approximate
    one, or the exact one where the two lie within _NEAR of the threshold,
    so every decision is the exact score's. On a send the outcome resolves
    at min(f_true * baseline, 1), the streak advances, and an ignore may
    churn the user when churn is enabled; a skip leaves the streak as it
    was. The sends of all arms step together over the flattened state.
    Returns the flat indices arm * users + row sent to, ascending, and
    whether each of those sends was opened.
    """
    score = state.scores[t]
    threshold = state.thresholds.take(state.offset + state.streak)
    gap = score - threshold
    send = gap >= 0.0
    if np.abs(gap, out=gap).min() <= _NEAR:
        arm, row = np.nonzero(gap <= _NEAR)
        send[arm, row] = _logistic(state.block.logits[row, t]) >= threshold[arm, row]
    send &= state.sends_today < state.effective_limit
    send &= state.reachable
    state.sends_today += send
    sent = send.reshape(-1).nonzero()[0]
    streak, cursor = state.streak.reshape(-1), state.cursor.reshape(-1)
    before = streak.take(sent)
    at = cursor.take(sent)
    uniforms = state.block.uniforms.reshape(-1)
    opened = uniforms.take(at) < state.p_open.take(state.open_offset.take(sent) + before)
    before *= 2
    before += opened
    streak[sent] = state.advance.take(before, mode="wrap")
    at += 1
    if churn_rate > 0.0:
        # an ignore reads its churn draw next and moves the cursor past it; a
        # user reads at most two draws a pass, so every send's next draw lies
        # in its own row and all are read, opened or not
        churned = uniforms.take(at) < churn_rate
        churned &= ~opened
        state.reachable.reshape(-1)[sent[churned]] = False
        at += 1
        at -= opened
    cursor[sent] = at
    return sent, opened


def _simulate(config: SimConfig, arms: list[tuple[PolicyTable, SendLimitConfig]],
              calibration: CalibrationMap, *, days: int, keep_events: bool,
              latent_salt: int = _LATENT, policy_salt: int = _POLICY) -> tuple[dict, list]:
    """The simulation loop: run every (table, limits) arm over blocks of
    users holding at most BLOCK_BYTES of draws. Each block's draws are made
    once, all arms step through its passes together (`simulate_pass`), and
    two pass-major (passes, arms, users) masks record who each pass sent to
    and which of those sends opened; every result is read off them before
    the next block is drawn.

    Returns the column table, one column per per-user result in user-index
    order: "row", (users,), each user's position in config.types; "sends",
    "opens", "active_days" (days with an open), "max_day_sends",
    "reachable" and "discounted" (opens weighted gamma**pass, added up in
    pass order), each (arms, users) with row a for arm a. Also returns, if
    keep_events, each arm's kept sends as a SendLog, pass p of day d stamped
    d days plus p / passes_per_day of a day."""
    truth = apply_kappa(config.true_factors, config.kappa_true)
    passes = days * config.passes_per_day
    weights = np.cumprod([1.0] + [config.gamma] * (passes - 1))
    day, pass_of_day = np.divmod(np.arange(passes), config.passes_per_day)
    stamps = day * SECONDS_PER_DAY + pass_of_day * (SECONDS_PER_DAY // config.passes_per_day)
    tables = [table for table, _ in arms]
    limits = np.array([[lim.effective_limit(c) for c in config.types] for _, lim in arms])
    blocks = []
    kept = [[] for _ in arms]
    size = BLOCK_BYTES // (24 * passes)
    for start in range(0, config.num_users, size):
        stop = min(start + size, config.num_users)
        block = _draw_block(config, start, stop, passes, latent_salt, policy_salt)
        state = BlockState.start(block, limits[:, block.rows], tables, calibration, truth)
        shape = state.streak.shape
        # two arrays: one holding both read about 0.1 MB more peak RSS on ab_test
        masks = [np.zeros((passes, state.streak.size), dtype=bool) for _ in range(2)]
        discounted = np.zeros(state.streak.size)
        for t in range(passes):
            if t % config.passes_per_day == 0:
                state.sends_today[:] = 0
            sent, opened = simulate_pass(state, t, churn_rate=config.churn_rate)
            openers = sent[opened]
            masks[0][t, sent] = True
            masks[1][t, openers] = True
            # summed off the open mask, it would need a float temporary as large as the mask
            discounted[openers] += weights[t]
        sent, opened = (mask.reshape(passes, *shape) for mask in masks)
        by_day = (days, config.passes_per_day, *shape)
        blocks.append(dict(
            row=block.rows, sends=np.count_nonzero(sent, axis=0),
            opens=np.count_nonzero(opened, axis=0), discounted=discounted.reshape(shape),
            active_days=np.count_nonzero(opened.reshape(by_day).any(axis=1), axis=0),
            max_day_sends=np.count_nonzero(sent.reshape(by_day), axis=1).max(axis=0),
            reachable=state.reachable))
        if keep_events:
            for arm, chunks in enumerate(kept):
                t, row = np.nonzero(sent[:, arm])
                chunks.append((block.index[row], block.user_type[row], stamps[t],
                               _logistic(block.logits[row, t]), opened[t, arm, row]))
    columns = {key: np.concatenate([cols[key] for cols in blocks], axis=-1) for key in blocks[0]}
    if not keep_events:
        return columns, None
    # user indices are the codes; from_codes orders rows by user id, then
    # time, and each pass of a day has its own second
    ids = [f"u{i:07d}" for i in range(config.num_users)]
    return columns, [SendLog.from_codes(ids, *(np.concatenate(c) for c in zip(*chunks)))
                     for chunks in kept]


def warmup_events(config: SimConfig) -> SendLog:
    """Sends of the short no-filter run used to observe the score/outcome
    distribution, on dedicated per-user sub-streams so it neither consumes
    nor duplicates the draws of the measured treatments."""
    # a map only moves thresholds, and every map's values reach NO_FILTER's
    # 0, whose raw threshold is then -inf, so any valid map serves; this one
    # maps every score below 1.0 to 0.0
    zero_below_one = CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    _, (log,) = _simulate(config, [(policy.NO_FILTER, config.send_limits)], zero_below_one,
                          days=config.calibration_days, keep_events=True,
                          latent_salt=_WARMUP_LATENT, policy_salt=_WARMUP_POLICY)
    return log


def fit_sim_calibration(config: SimConfig) -> CalibrationMap:
    """Calibration fitted on the raw scores and outcomes of a fresh
    warm-up's sends, `warmup_events(config)`. Raises ValueError when the
    warm-up sends fewer than the two the fit needs."""
    log = warmup_events(config)
    if len(log.raw_score) < 2:
        raise ValueError(f"the calibration warm-up sent {len(log.raw_score)} notifications "
                         f"over calibration_days = {config.calibration_days} days; "
                         "its calibration fit needs at least 2")
    return fit_isotonic(log.raw_score, log.outcome)


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

    arms = [(t.table, config.send_limits.with_extra_adjustment(t.limit_adjustment))
            for t in treatments]
    columns, logs = _simulate(config, arms, calibration, days=config.days,
                              keep_events=keep_events)
    n = config.num_users
    results = []
    for arm, treatment in enumerate(treatments):
        # float weights count exactly below 2**53
        sends, opens = (np.bincount(columns["row"], columns[key][arm],
                                    len(config.types)).astype(np.int64)
                        for key in ("sends", "opens"))
        total_sends = int(sends.sum())
        total_opens = int(opens.sum())
        results.append(TreatmentResult(
            name=treatment.name,
            limit_adjustment=treatment.limit_adjustment,
            total_sends=total_sends,
            total_opens=total_opens,
            open_rate=total_opens / total_sends if total_sends else 0.0,
            dau_proxy=int(columns["active_days"][arm].sum()) / (n * config.days),
            reachability_proxy=int(columns["reachable"][arm].sum()) / n,
            # one user at a time in index order; np.sum's pairwise order moves bits
            discounted_opens=float(np.cumsum(columns["discounted"][arm])[-1]) / n,
            per_type_sends=dict(zip(config.types, sends.tolist())),
            per_type_opens=dict(zip(config.types, opens.tolist())),
            is_baseline=treatment.baseline,
        ))
    names = [t.name for t in treatments]
    return ExperimentReport(
        baseline_name=next(t.name for t in treatments if t.baseline), results=results,
        max_daily_sends=dict(zip(names, columns["max_day_sends"].max(axis=1).tolist())),
        events=dict(zip(names, logs)) if keep_events else None)
