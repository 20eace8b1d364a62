"""Independent reference implementations used to check the real code.

Everything here is written from first principles with its own data
structures: a quadratic-time isotonic fit whose pools take exact fraction
means, a no-memoization tree enumeration of the send/skip recursion, the
2-D array recursion with a fixed-point test after every step, a
closed-form threshold root, the policy table with its always- and
never-send masks from two public `q_send` calls, the policy CSV and the
ramp ground truth one cell at a time, the streak rule, calibration lookup
and send decisions for one candidate at a time, the log reader as one `json.loads` per line, the
ingest dataset as a per-user split, baseline and replay, and the simulator
as one Python call per user-pass. None of it imports from the package's algorithm internals;
the simulator oracle builds the package's report type, decides each send
with `decide_oracle`, and keeps each send as its own `OracleSend` record
rather than a package type.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from notif_ltv import (
    CalibrationMap,
    ExperimentReport,
    LogParseError,
    SendLog,
    TreatmentResult,
    q_send,
    state_values,
)


def pav_oracle(values, weights=None, increasing=True):
    """O(n^2) pool-adjacent-violators: rescan for any adjacent violation,
    merge the pair, recompute the pooled mean from the original members as
    an exact fraction, rounded once to the nearest float."""
    vals = [float(v) for v in values]
    if weights is None:
        wts = [1.0] * len(vals)
    else:
        wts = [float(w) for w in weights]
    if not increasing:
        return [-v for v in pav_oracle([-v for v in vals], wts, True)]
    groups = [[i] for i in range(len(vals))]

    def group_value(members):
        if len(members) == 1:
            return vals[members[0]]  # never pooled, passes through exactly
        wsum = sum(Fraction(wts[i]) for i in members)
        if wsum > 0:
            return float(sum(Fraction(vals[i]) * Fraction(wts[i]) for i in members) / wsum)
        return float(sum(Fraction(vals[i]) for i in members) / len(members))

    changed = True
    while changed:
        changed = False
        for g in range(len(groups) - 1):
            if group_value(groups[g]) > group_value(groups[g + 1]):
                groups[g] = groups[g] + groups[g + 1]
                del groups[g + 1]
                changed = True
                break
    out = [0.0] * len(vals)
    for members in groups:
        v = group_value(members)
        for i in members:
            out[i] = v
    return out


def isotonic_fit_oracle(pairs, weights=None):
    """Reference for the calibration fit: pool exact score ties (weighted
    mean outcome), then run the O(n^2) PAV over the pooled points.
    Returns (breakpoints, fitted_values)."""
    pairs = list(pairs)
    if weights is None:
        weights = [1.0] * len(pairs)
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    breakpoints, vals, wts = [], [], []
    i = 0
    while i < len(order):
        score = pairs[order[i]][0]
        j = i
        wy = 0.0
        w = 0.0
        while j < len(order) and pairs[order[j]][0] == score:
            idx = order[j]
            wy += float(pairs[idx][1]) * weights[idx]
            w += weights[idx]
            j += 1
        breakpoints.append(float(score))
        if w > 0:
            vals.append(wy / w)
        else:
            vals.append(sum(float(pairs[order[k]][1]) for k in range(i, j)) / (j - i))
        wts.append(w)
        i = j
    fitted = pav_oracle(vals, wts, increasing=True)
    fitted = [min(max(v, 0.0), 1.0) for v in fitted]
    return breakpoints, fitted


def tree_value_oracle(factors, ybar, gamma, bounds, streak, steps):
    """Optimal value by brute-force recursion over the full action/outcome
    tree. No memoization, no shared helpers: factors is a plain dict keyed
    by streak, and the streak transition is written out inline."""
    if steps <= 0:
        return 0.0
    lo, hi = bounds

    def clamp(s):
        return lo if s < lo else hi if s > hi else s

    p = factors[streak] * ybar
    if p > 1.0:
        p = 1.0
    up = clamp(max(streak, 0) + 1)
    down = clamp(min(streak, 0) - 1)
    send = (p * (1.0 + gamma * tree_value_oracle(factors, ybar, gamma, bounds, up, steps - 1))
            + (1.0 - p) * gamma * tree_value_oracle(factors, ybar, gamma, bounds, down, steps - 1))
    skip = gamma * tree_value_oracle(factors, ybar, gamma, bounds, streak, steps - 1)
    return send if send >= skip else skip


def state_values_reference(model, config, steps):
    """`state_values` as the 2-D recursion it replaced, to compare bits with.

    Each step gathers the (type, streak) grid of values at the up and down
    columns, forms the send value with the package's order of operations,
    keeps send where it is at least skip with np.where, and stops as soon as
    a step returns the values it was given. The grid is rebuilt here from
    the model's fields and `streak_oracle`'s rule."""
    lo, hi = model.factors.bounds
    factors = model.factors.factors
    ybar = np.array([[model.type_mean_open[c]] for c in model.types], dtype=float)
    up = np.array([streak_oracle(s, True, (lo, hi)) - lo for s in range(lo, hi + 1)])
    down = np.array([streak_oracle(s, False, (lo, hi)) - lo for s in range(lo, hi + 1)])
    gamma = config.gamma
    p = np.minimum(factors * ybar, 1.0)
    values = np.zeros(factors.shape)
    for _ in range(steps):
        send = p * (1.0 + gamma * values[:, up]) + (1.0 - p) * (gamma * values[:, down])
        skip = gamma * values
        nxt = np.where(send >= skip, send, skip)
        if np.array_equal(nxt, values):
            break
        values = nxt
    return values


NEVER = float("inf")


def solve_policy_oracle(model, config):
    """The thresholds `solve_policy` solves, post-processing written with the
    public functions: values from `state_values`, and the always- and
    never-send masks from `q_send` at scores 0 and 1."""
    values = state_values(model, config, config.horizon - 1)
    lo, hi = model.factors.bounds
    factors = model.factors.factors
    up = np.array([streak_oracle(s, True, (lo, hi)) - lo for s in range(lo, hi + 1)])
    down = np.array([streak_oracle(s, False, (lo, hi)) - lo for s in range(lo, hi + 1)])
    gamma = config.gamma
    skip = gamma * values
    always = q_send(model, config, values, 0.0) - skip >= 0.0
    never = q_send(model, config, values, 1.0) - skip < 0.0
    thresholds = np.where(always, 0.0, np.where(never, NEVER, 1.0))
    v_down = values[:, down]
    slope = factors * (1.0 + gamma * (values[:, up] - v_down))
    root = ~always & ~never & (slope > 0.0)
    np.divide(gamma * (values - v_down), slope, out=thresholds, where=root)
    np.minimum(thresholds, 1.0, out=thresholds, where=root)
    return thresholds


def policy_csv_oracle(table):
    """The policy CSV that `solve` writes (`cli._policy_texts`), one cell at a
    time through csv.writer: a header, then per type and streak the cell's
    numpy scalar as repr(float(v)), or never_send."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_type", "streak", "threshold"])
    lo, hi = table.bounds
    for i, c in enumerate(table.types):
        for s in range(lo, hi + 1):
            v = table.thresholds[i, s - lo]
            writer.writerow([c, s, "never_send" if math.isinf(v) else repr(float(v))])
    return buf.getvalue()


def threshold_oracle(factors, ybar, gamma, bounds, streak, steps):
    """Closed-form root of the send-minus-skip advantage, using values from
    the tree oracle. Returns 0 when sending always wins, NEVER when a
    perfect score still loses, and the linear-segment root otherwise."""
    lo, hi = bounds

    def clamp(s):
        return lo if s < lo else hi if s > hi else s

    f = factors[streak]
    v_up = tree_value_oracle(factors, ybar, gamma, bounds, clamp(max(streak, 0) + 1), steps - 1)
    v_down = tree_value_oracle(factors, ybar, gamma, bounds, clamp(min(streak, 0) - 1), steps - 1)
    v_stay = tree_value_oracle(factors, ybar, gamma, bounds, streak, steps - 1)

    def advantage(p):
        po = min(f * p, 1.0)
        return po * (1.0 + gamma * v_up) + (1.0 - po) * gamma * v_down - gamma * v_stay

    if advantage(0.0) >= 0.0:
        return 0.0
    if advantage(1.0) < 0.0:
        return NEVER
    slope = f * (1.0 + gamma * (v_up - v_down))
    if slope <= 0.0:
        return None  # flat or decreasing advantage cannot cross upward
    return gamma * (v_stay - v_down) / slope


def ramp_factor_oracle(bounds, ramps):
    """The ramp ground truth one cell at a time: row i holds the i-th type of
    sorted(ramps), streak 0 sits at 1, and each branch runs linearly from 1
    to its end, ramps[c] = (value at bounds[0], value at bounds[1])."""
    lo, hi = bounds
    types = sorted(ramps)
    factors = np.ones((len(types), hi - lo + 1))
    for i, c in enumerate(types):
        neg_end, pos_end = ramps[c]
        for s in range(lo, hi + 1):
            if s > 0:
                factors[i, s - lo] = 1.0 + (s / hi) * (pos_end - 1.0)
            elif s < 0:
                factors[i, s - lo] = 1.0 + (s / lo) * (neg_end - 1.0)
    return factors


# --- lookups: one candidate at a time, from plain tuples and dicts -------------

def streak_oracle(streak, outcome, bounds):
    """The streak after a send resolves: an open extends a non-negative run,
    an ignore a non-positive one, and the result is clamped to bounds."""
    lo, hi = bounds
    nxt = max(streak, 0) + 1 if outcome else min(streak, 0) - 1
    return min(max(nxt, lo), hi)


def calibration_oracle(cmap, raw_score):
    """The value of the greatest breakpoint at or below raw_score, or the
    first value below the first breakpoint."""
    idx = bisect_right(cmap.breakpoints, raw_score) - 1
    return cmap.values[max(idx, 0)]


def threshold_cells(table):
    """A policy table as a dict {(user_type, streak): threshold}."""
    lo, _ = table.bounds
    return {(c, lo + j): t for c, row in zip(table.types, table.thresholds.tolist())
            for j, t in enumerate(row)}


def decide_oracle(user_type, streak, score, sends_today, effective_limit, *,
                  cutoffs=None, cells=None, bounds=None):
    """One send decision. With neither cutoffs nor cells it is the no-filter
    policy; cutoffs {user_type: k} make it the heuristic (score > k); cells
    from `threshold_cells` with their bounds make it the solved policy
    (score >= the threshold at the clamped streak)."""
    if sends_today >= effective_limit:
        return False
    if cutoffs is not None:
        return score > cutoffs[user_type]
    if cells is not None:
        lo, hi = bounds
        return score >= cells[user_type, min(max(streak, lo), hi)]
    return True


# --- ingest: one line, one user and one send at a time ------------------------

def read_log_oracle(path):
    """Reference for `read_log`: the same SendLog, or a LogParseError with
    the same message.

    The bytes are cut into lines at LF, CRLF and a lone CR, each line
    ending in LF as a text-mode read gives it. Each line is decoded as
    strict UTF-8 and skipped when `str.strip` leaves nothing; otherwise one
    `json.loads` must give an object whose five fields pass the format's
    checks in field order, and a user keeps the type of its first line.
    Rows are then ordered by sorted user id and, stably, by timestamp.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)
    rows, type_of = [], {}
    for lineno, raw in enumerate(lines, start=1):
        def fail(why):
            raise LogParseError(f"line {lineno}: {why}")
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            fail(f"byte {raw[exc.start]:#04x} is not valid UTF-8")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, an int too long, nesting too deep
            fail(f"invalid JSON ({getattr(exc, 'msg', exc)})")
        if not isinstance(obj, dict):
            fail("expected a JSON object")
        for name in ("user_id", "user_type", "timestamp", "raw_score", "outcome"):
            if name not in obj:
                fail(f"missing field {name!r}")
        uid, utype, ts = obj["user_id"], obj["user_type"], obj["timestamp"]
        score, outcome = obj["raw_score"], obj["outcome"]
        if not isinstance(uid, str) or uid == "":
            fail("user_id must be a non-empty string")
        if isinstance(utype, bool) or not isinstance(utype, int) or not 1 <= utype <= 6:
            fail(f"unknown user_type {utype!r}; expected one of [1, 2, 3, 4, 5, 6]")
        if isinstance(ts, bool) or not isinstance(ts, int):
            fail("timestamp must be an integer")
        if ts < -2 ** 63 or ts >= 2 ** 63:
            fail(f"timestamp {ts} does not fit in 64 bits")
        if isinstance(score, bool) or not isinstance(score, (int, float)) \
                or not (0 <= score <= 1):
            fail("raw_score must be a number in [0, 1]")
        if isinstance(outcome, bool) or not isinstance(outcome, (int, float)) \
                or outcome not in (0, 1):
            fail(f"outcome must be 0 or 1, got {outcome!r}")
        first = type_of.setdefault(uid, utype)
        if first != utype:
            fail(f"user {uid!r} changes type from {first} to {utype}")
        rows.append((uid, utype, ts, float(score), int(outcome)))
    users = sorted({r[0] for r in rows})
    rank = {uid: i for i, uid in enumerate(users)}
    rows.sort(key=lambda r: (rank[r[0]], r[2]))  # stable: ties keep file order
    columns = list(zip(*rows)) or [()] * 5
    return SendLog(users=tuple(users),
                   user=np.array([rank[uid] for uid in columns[0]], dtype=np.int64),
                   user_type=np.array(columns[1], dtype=np.int64),
                   timestamp=np.array(columns[2], dtype=np.int64),
                   raw_score=np.array(columns[3], dtype=np.float64),
                   outcome=np.array(columns[4], dtype=np.int64))


def from_rows_oracle(user_id, user_type, timestamp, raw_score, outcome):
    """Reference for `SendLog.from_rows`: each row's rank among the sorted
    distinct ids, then one `np.lexsort` by rank and timestamp, which is
    stable, so rows with equal keys keep their input order."""
    users = tuple(sorted(set(user_id)))
    rank = {uid: r for r, uid in enumerate(users)}
    user = np.array([rank[uid] for uid in user_id], dtype=np.int64)
    timestamp = np.asarray(timestamp, dtype=np.int64)
    order = np.lexsort((timestamp, user))
    return SendLog(users=users, user=user[order],
                   user_type=np.asarray(user_type, dtype=np.int64)[order],
                   timestamp=timestamp[order],
                   raw_score=np.asarray(raw_score, dtype=float)[order],
                   outcome=np.asarray(outcome, dtype=np.int64)[order])


def build_dataset_oracle(rows, min_samples, bounds):
    """Records of a send log given as dicts in file order, as tuples
    (user_id, user_type, streak, outcome, baseline_rate, raw_score).

    Users in sorted id order, each user's sends stably sorted by timestamp
    and cut at n // 2; a user with fewer than min_samples first-half sends
    is excluded, and the streak replays the second half from 0.
    """
    by_user = {}
    for r in rows:
        by_user.setdefault(r["user_id"], []).append(r)
    records = []
    for uid in sorted(by_user):
        sends = sorted(by_user[uid], key=lambda r: r["timestamp"])
        cut = len(sends) // 2
        first, second = sends[:cut], sends[cut:]
        if len(first) < min_samples:
            continue
        baseline = sum(r["outcome"] for r in first) / len(first)
        streak = 0
        for r in second:
            records.append((uid, r["user_type"], streak, r["outcome"], baseline,
                            float(r["raw_score"])))
            streak = streak_oracle(streak, r["outcome"], bounds)
    return records


# --- simulator: one scalar call per user-pass ---------------------------------

SECONDS_PER_DAY = 86400
LATENT, POLICY, WARMUP_LATENT, WARMUP_POLICY = 0, 1, 2, 3


class OracleSend(NamedTuple):
    """One send of the oracle simulator; equal to the tuple of a SendLog
    row with its user id in place of the user position."""

    user_id: str
    user_type: int
    timestamp: int
    raw_score: float
    outcome: int


@dataclass
class OracleUser:
    """One user's latent traits and mutable per-arm state."""

    user_id: str
    user_type: int
    baseline: float
    streak: int = 0
    sends_today: int = 0
    active_today: bool = False
    reachable: bool = True


def _spawn(config, index, salt):
    """User `index` and its latent stream after the type and baseline draws."""
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, index, salt]))
    u = rng.random()
    cum = 0.0
    user_type = [c for c in config.types if config.type_shares[c] > 0][-1]
    for c in config.types:
        cum += config.type_shares[c]
        if u < cum:
            user_type = c
            break
    a, b = config.baseline_beta[user_type]
    baseline = min(max(float(rng.beta(a, b)), 1e-6), 1.0 - 1e-6)
    return OracleUser(f"u{index:07d}", user_type, baseline), rng


def simulate_pass_oracle(user, rule, calibration, latent_rng, policy_rng, *, config,
                         factors, effective_limit, timestamp):
    """One decision opportunity for one reachable user; the send or None.

    rule holds the keyword arguments of `decide_oracle` for the arm, and
    factors maps (type, streak) to the effective ground-truth factor.
    """
    sigma = config.score_noise[user.user_type]
    b = user.baseline
    logit = math.log(b / (1.0 - b)) + sigma * latent_rng.standard_normal()
    try:
        raw = 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # exp(-logit) is inf, and 1 / (1 + inf) is 0.0
        raw = 0.0
    calibrated = calibration_oracle(calibration, raw)
    if not decide_oracle(user.user_type, user.streak, calibrated, user.sends_today,
                         effective_limit, **rule):
        return None
    p_open = min(factors[user.user_type, user.streak] * user.baseline, 1.0)
    outcome = 1 if policy_rng.random() < p_open else 0
    user.streak = streak_oracle(user.streak, outcome, config.true_factors.bounds)
    user.sends_today += 1
    if outcome:
        user.active_today = True
    elif config.churn_rate > 0.0 and policy_rng.random() < config.churn_rate:
        user.reachable = False
    return OracleSend(user_id=user.user_id, user_type=user.user_type,
                      timestamp=timestamp, raw_score=raw, outcome=outcome)


def _effective_factors(config):
    lo, _ = config.true_factors.bounds
    table = config.true_factors
    return {(c, lo + j): max((float(f) - 1.0) * config.kappa_true + 1.0, 1e-12)
            for i, c in enumerate(table.types) for j, f in enumerate(table.factors[i])}


def simulate_user_oracle(config, index, rule, calibration, limits, days,
                         latent_salt=LATENT, policy_salt=POLICY):
    """One user through every day of one arm: (user, stats dict, events)."""
    user, latent_rng = _spawn(config, index, latent_salt)
    policy_rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, index, policy_salt]))
    factors = _effective_factors(config)
    limit = max(limits.limits[user.user_type] + limits.adjustment, 0)
    step = SECONDS_PER_DAY // config.passes_per_day
    events = []
    stats = {"opens": 0, "dau_days": 0, "max_day_sends": 0, "discounted": 0.0}
    weight = 1.0
    for day in range(days):
        if not user.reachable:
            break
        user.sends_today = 0
        user.active_today = False
        for p in range(config.passes_per_day):
            if not user.reachable:
                break
            event = simulate_pass_oracle(
                user, rule, calibration, latent_rng, policy_rng, config=config,
                factors=factors, effective_limit=limit,
                timestamp=day * SECONDS_PER_DAY + p * step)
            if event is not None:
                events.append(event)
                if event.outcome:
                    stats["opens"] += 1
                    stats["discounted"] += weight
            weight *= config.gamma
        stats["max_day_sends"] = max(stats["max_day_sends"], user.sends_today)
        stats["dau_days"] += user.active_today
    return user, stats, events


def warmup_events_oracle(config):
    """Sends of the no-filter warm-up, in user-index order."""
    identity = CalibrationMap(breakpoints=(0.0, 1.0), values=(0.0, 1.0))
    events = []
    for i in range(config.num_users):
        events += simulate_user_oracle(
            config, i, {}, identity, config.send_limits, config.calibration_days,
            WARMUP_LATENT, WARMUP_POLICY)[2]
    return events


def run_experiment_oracle(config, treatments, rules, calibration, keep_events=False):
    """The report of the simulator, one user and one pass at a time.

    rules[i] holds the keyword arguments of `decide_oracle` for treatments[i]:
    cutoffs for a heuristic, cells and bounds for a solved table, none for
    no filter. The treatments give only names, limit adjustments and the
    baseline flag; their tables are not read."""
    results, max_daily, all_events = [], {}, {}
    n = config.num_users
    for t, rule in zip(treatments, rules, strict=True):
        limits = config.send_limits.with_extra_adjustment(t.limit_adjustment)
        sends = {c: 0 for c in config.types}
        opens = {c: 0 for c in config.types}
        dau = reachable = max_day = 0
        discounted = 0.0
        events = []
        for i in range(n):
            user, stats, user_events = simulate_user_oracle(
                config, i, rule, calibration, limits, config.days)
            sends[user.user_type] += len(user_events)
            opens[user.user_type] += stats["opens"]
            dau += stats["dau_days"]
            reachable += user.reachable
            max_day = max(max_day, stats["max_day_sends"])
            discounted += stats["discounted"]
            events += user_events
        total_sends, total_opens = sum(sends.values()), sum(opens.values())
        results.append(TreatmentResult(
            name=t.name, limit_adjustment=t.limit_adjustment, total_sends=total_sends,
            total_opens=total_opens,
            open_rate=total_opens / total_sends if total_sends else 0.0,
            dau_proxy=dau / (n * config.days), reachability_proxy=reachable / n,
            discounted_opens=discounted / n, per_type_sends=sends, per_type_opens=opens,
            is_baseline=t.baseline))
        max_daily[t.name] = max_day
        all_events[t.name] = events
    baseline = next(t.name for t in treatments if t.baseline)
    return ExperimentReport(baseline_name=baseline, results=results, max_daily_sends=max_daily,
                            events=all_events if keep_events else None)


def simulate_columns_oracle(config, treatments, rules, calibration):
    """The column table of `sim._simulate` for the main run, one user and one
    pass at a time: "row" one entry per user, every other column one list
    per arm with one entry per user."""
    columns = {key: [] for key in ("sends", "opens", "active_days", "max_day_sends",
                                   "reachable", "discounted")}
    for t, rule in zip(treatments, rules, strict=True):
        limits = config.send_limits.with_extra_adjustment(t.limit_adjustment)
        arm = {key: [] for key in columns}
        row = []
        for i in range(config.num_users):
            user, stats, events = simulate_user_oracle(config, i, rule, calibration, limits,
                                                       config.days)
            for key, value in (("sends", len(events)), ("opens", stats["opens"]),
                               ("active_days", stats["dau_days"]),
                               ("max_day_sends", stats["max_day_sends"]),
                               ("reachable", user.reachable),
                               ("discounted", stats["discounted"])):
                arm[key].append(value)
            row.append(config.types.index(user.user_type))
        for key, values in arm.items():
            columns[key].append(values)
    return {"row": row, **columns}
