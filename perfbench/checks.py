"""Output checks for the benchmark's stage invocations.

Each check takes a parsed artifact and returns a list of problems; an empty
list means the output is acceptable. Invariants hold for any seed. Reference
comparisons apply when the inputs are the ones the stored reference was
recorded on (same input digest): calibration maps must match exactly,
thresholds within THRESHOLD_ABS_TOL, simulator integer counts exactly and
simulator floats within SIM_REL_TOL.
"""

from __future__ import annotations

import hashlib
import json
import math

THRESHOLD_ABS_TOL = 1e-6
SIM_REL_TOL = 1e-9
# the solved policy may not buy speed by giving up discounted opens: the
# acceptance suite's bound for the rl arm against the heuristic baseline
RL_MIN_DISCOUNTED_RATIO = 0.95

_SIM_INTS = ("total_sends", "total_opens", "limit_adjustment")
_SIM_FLOATS = ("open_rate", "dau_proxy", "reachability_proxy", "discounted_opens")


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(list(values)).encode()).hexdigest()


def calibration(doc: dict) -> list[str]:
    bps, vals = doc.get("breakpoints"), doc.get("values")
    if not isinstance(bps, list) or not isinstance(vals, list) or not bps \
            or len(bps) != len(vals):
        return ["calibration: breakpoints and values must be equal-length, non-empty lists"]
    problems = []
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        problems.append("calibration: breakpoints not strictly ascending")
    if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
        problems.append("calibration: values decrease")
    if any(not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0) for v in vals):
        problems.append("calibration: value outside [0, 1]")
    return problems


def thresholds(doc: dict) -> list[str]:
    table = doc.get("thresholds")
    types = doc.get("types")
    bounds = doc.get("streak_bounds")
    if not isinstance(table, dict) or not isinstance(types, list) or not bounds:
        return ["thresholds: missing thresholds, types or streak_bounds"]
    width = bounds[1] - bounds[0] + 1
    problems = []
    for c in types:
        row = table.get(str(c))
        if not isinstance(row, list) or len(row) != width:
            problems.append(f"thresholds: type {c} row missing or not {width} long")
            continue
        # None is the serialized never-send threshold
        if any(v is not None and not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0)
               for v in row):
            problems.append(f"thresholds: type {c} has a value outside [0, 1]")
    return problems


def model(doc: dict) -> list[str]:
    problems = []
    for c, row in doc.get("factors", {}).items():
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in row):
            problems.append(f"model: type {c} has a non-positive or non-finite factor")
    for c, v in doc.get("type_mean_open", {}).items():
        if not 0.0 < v < 1.0:
            problems.append(f"model: type {c} mean open {v} outside (0, 1)")
    if not doc.get("factors"):
        problems.append("model: no factors")
    return problems


def report(doc: dict) -> list[str]:
    treatments = doc.get("treatments")
    per_type = doc.get("per_type")
    if not isinstance(treatments, list) or not isinstance(per_type, list) or not treatments:
        return ["report: missing treatments or per_type rows"]
    problems = []
    for t in treatments:
        rows = [r for r in per_type if r.get("treatment") == t.get("name")]
        sends = sum(r["sends"] for r in rows)
        opens = sum(r["opens"] for r in rows)
        if sends != t["total_sends"] or opens != t["total_opens"]:
            problems.append(f"report: {t['name']} totals {t['total_sends']}/{t['total_opens']} "
                            f"disagree with per-type rows {sends}/{opens}")
        if t["total_opens"] > t["total_sends"]:
            problems.append(f"report: {t['name']} has more opens than sends")
    by_name = {t["name"]: t for t in treatments}
    if "rl" in by_name and doc.get("baseline") in by_name:
        base = by_name[doc["baseline"]]["discounted_opens"]
        if by_name["rl"]["discounted_opens"] < RL_MIN_DISCOUNTED_RATIO * base:
            problems.append("report: rl discounted opens fell below "
                            f"{RL_MIN_DISCOUNTED_RATIO} x the baseline arm")
    return problems


def send_limits(event_lines, limit_of_type: dict[str, int], label: str) -> list[str]:
    """No user may receive more sends in one day than their type's limit."""
    per_day: dict[tuple[str, int], int] = {}
    type_of: dict[str, int] = {}
    for line in event_lines:
        if not line.strip():
            continue
        e = json.loads(line)
        key = (e["user_id"], e["timestamp"] // 86400)
        per_day[key] = per_day.get(key, 0) + 1
        type_of[e["user_id"]] = e["user_type"]
    over = [k for k, n in per_day.items() if n > limit_of_type[str(type_of[k[0]])]]
    if over:
        return [f"{label}: {len(over)} user-days exceed the send limit, e.g. {over[0]}"]
    return []


CHECKS = {"calibration": calibration, "thresholds": thresholds,
          "model": model, "report": report}


def snapshot(kind: str, doc: dict):
    """The part of an artifact that the stored reference pins down."""
    if kind == "calibration":
        return {"breakpoints": len(doc["breakpoints"]),
                "breakpoints_sha256": _digest(doc["breakpoints"]),
                "values_sha256": _digest(doc["values"])}
    if kind == "thresholds":
        return {str(c): doc["thresholds"][str(c)] for c in doc["types"]}
    if kind == "report":
        return {"treatments": {t["name"]: {k: t[k] for k in _SIM_INTS + _SIM_FLOATS}
                               for t in doc["treatments"]},
                "per_type": [[r["treatment"], r["user_type"], r["sends"], r["opens"]]
                             for r in doc["per_type"]]}
    return None


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare(kind: str, got, want) -> list[str]:
    """Compare a snapshot against the stored reference snapshot."""
    if want is None:
        return []
    if kind == "calibration":
        return [] if got == want else ["calibration: differs from the stored reference"]
    if kind == "thresholds":
        if got.keys() != want.keys():
            return ["thresholds: types differ from the stored reference"]
        for c in want:
            for g, w in zip(got[c], want[c]):
                if (g is None) != (w is None) or (
                        g is not None and abs(g - w) > THRESHOLD_ABS_TOL):
                    return [f"thresholds: type {c} differs from the stored reference "
                            f"by more than {THRESHOLD_ABS_TOL}"]
        return []
    if kind == "report":
        problems = []
        if got["per_type"] != want["per_type"]:
            problems.append("report: per-type counts differ from the stored reference")
        if got["treatments"].keys() != want["treatments"].keys():
            return problems + ["report: treatment names differ from the stored reference"]
        for name, w in want["treatments"].items():
            g = got["treatments"][name]
            if any(g[k] != w[k] for k in _SIM_INTS):
                problems.append(f"report: {name} counts differ from the stored reference")
            if any(not _close(g[k], w[k], SIM_REL_TOL) for k in _SIM_FLOATS):
                problems.append(f"report: {name} rates differ from the stored reference "
                                f"by more than {SIM_REL_TOL} relative")
        return problems
    return []
