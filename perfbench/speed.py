"""Machine-speed probe for normalizing throughput.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, more than any regression bound worth having. Every run
therefore times this fixed pure-Python kernel between the stages it
measures, and scales its throughput to a nominal machine on which one pass
of the kernel takes NOMINAL_S seconds. The kernel mixes what the workloads
spend their time on, in similar shares: interpreted float loops over lists
(pool-adjacent-violators), function calls with dict lookups (the solver's
memo), small-object creation and attribute access (simulator and ingest)
and JSON parsing. It does not touch notif_ltv, so no change to the package
can change it.
"""

from __future__ import annotations

import json
import math
import time

NOMINAL_S = 0.0015

_VALUES = [math.sin(i) ** 2 for i in range(480)]
_LINES = [json.dumps({"user_id": f"u{i:06d}", "user_type": 1 + i % 6,
                      "timestamp": 1_700_000_000 + 97 * i,
                      "raw_score": round(_VALUES[i], 6), "outcome": i % 3})
          for i in range(60)]


class _User:
    __slots__ = ("streak", "score", "sends")

    def __init__(self, score):
        self.streak, self.score, self.sends = 0, score, 0


def _pooled_mean(vals, start, end):
    total = 0.0
    weight = 0.0
    for i in range(start, end):
        total += vals[i] * 0.5
        weight += 0.5
    return total / weight


def _value(memo, s, k):
    key = (s, k)
    v = memo.get(key)
    if v is None:
        v = 0.0 if k == 0 else 0.9 * max(_value(memo, s, k - 1), 0.1 * s)
        memo[key] = v
    return v


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel on this machine, now."""
    start = time.perf_counter()
    acc = 0.0
    for end in range(20, 480, 20):
        acc += _pooled_mean(_VALUES, 0, end)
    memo: dict = {}
    for s in range(-8, 9):
        acc += _value(memo, s, 40)
    users = [_User(v) for v in _VALUES[:300]]
    for step in range(4):
        for u in users:
            if u.score > 0.3:
                u.sends += 1
                u.streak = max(u.streak, 0) + 1 if step % 2 else min(u.streak, 0) - 1
        acc += sum(u.streak for u in users)
    for line in _LINES:
        acc += json.loads(line)["raw_score"]
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("speed kernel produced a non-finite value")
    return elapsed
