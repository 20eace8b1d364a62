"""Traced boundaries of the package's layers and the per-layer metrics.

Each boundary is a public function, wrapped under the name its caller looks
it up by. Trace names start with the layer they belong to: `ingest`,
`behavior`, `calibrate`, `solver`, `policy`, `sim`, or `cli` for a whole
stage invocation (whose self time is artifact I/O, hashing and provenance).
`core` holds only the streak helpers the other layers call, so it has no
boundary of its own.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import HOT, SPAN

LAYERS = ("ingest", "behavior", "calibrate", "solver", "policy", "sim", "cli")
STAGES = ("calibrate", "fit", "solve", "simulate")
ARMS = ("heuristic", "no_filter", "rl")


def _events(tr, args, kwargs, logs):
    tr.count("ingest.events_parsed", sum(len(log.events) for log in logs))


def _records(tr, args, kwargs, records):
    logs = args[0] if args else kwargs["logs"]
    tr.count("ingest.records", len(records))
    tr.count("ingest.users_excluded", len(logs) - len({r.user_id for r in records}))


def _fit(tr, args, kwargs, model):
    records = args[0] if args else kwargs["records"]
    tr.count("behavior.records", len(records))
    tr.count("behavior.empty_cells", int((np.asarray(model.factors.counts) == 0).sum()))


def _calibration(tr, args, kwargs, cmap):
    pairs = args[0] if args else kwargs["pairs"]
    tr.count("calibrate.window_pairs", len(pairs))
    tr.count("calibrate.breakpoints", len(cmap.breakpoints))
    # distinct fitted values: the pools pool-adjacent-violators ended with
    tr.count("calibrate.pooled_values", len(set(cmap.values)))


def _solve(tr, args, kwargs, table):
    model, config = args[0], args[1]
    lo, hi = config.streak_bounds
    tr.count("solver.cell_steps", len(model.types) * (hi - lo + 1) * config.horizon)
    th = np.asarray(table.thresholds)
    tr.count("solver.never_send_cells", int(np.isinf(th).sum()))
    tr.count("solver.always_send_cells", int((th == 0.0).sum()))


def _experiment(tr, args, kwargs, report):
    config, treatments = args[0], args[1]
    tr.count("sim.user_passes",
             config.num_users * config.days * config.passes_per_day * len(treatments))
    tr.count("sim.sends", sum(r.total_sends for r in report.results))
    tr.count("sim.churned_users", sum(round((1.0 - r.reachability_proxy) * config.num_users)
                                      for r in report.results))
    if any(r.name == "rl" for r in report.results):
        lift = report.deltas("rl")["discounted_opens"]
        tr.count("sim.rl_discounted_opens_lift_pct", lift or 0.0)


CLI, BEHAVIOR, CALIBRATE, SOLVER, SIM = (f"notif_ltv.{m}" for m in
                                         ("cli", "behavior", "calibrate", "solver", "sim"))

# (module, attribute, trace name, kind, deferred counter or count-truthy flag)
BOUNDARIES = (
    (CLI, "read_log", "ingest.read_log", SPAN, _events),
    (CLI, "build_dataset", "ingest.build_dataset", SPAN, _records),
    (CLI, "fit_behavior_model", "behavior.fit", SPAN, _fit),
    (BEHAVIOR, "estimate_factors", "behavior.estimate_factors", SPAN, None),
    (BEHAVIOR, "summarize_types", "behavior.summarize_types", SPAN, None),
    (BEHAVIOR, "apply_calibration", "calibrate.apply", HOT, False),
    (CLI, "refresh", "calibrate.refresh", SPAN, None),
    (CALIBRATE, "fit_isotonic", "calibrate.fit_isotonic", SPAN, _calibration),
    (SIM, "fit_isotonic", "calibrate.fit_isotonic", SPAN, _calibration),
    (CALIBRATE, "pav", "calibrate.pav", SPAN, None),
    (CLI, "solve_policy", "solver.solve", SPAN, _solve),
    (SOLVER, "q_send", "solver.q_send", HOT, False),
    (CLI, "run_experiment", "sim.run_experiment", SPAN, _experiment),
    (SIM, "warmup_events", "sim.warmup", SPAN, None),
    (SIM, "simulate_pass", "sim.simulate_pass", HOT, False),
    (SIM, "apply_calibration", "calibrate.apply", HOT, False),
    (CLI, "decide_heuristic", "policy.decide.heuristic", HOT, True),
    (CLI, "decide_no_filter", "policy.decide.no_filter", HOT, True),
    (CLI, "decide_rl", "policy.decide.rl", HOT, True),
    # the simulator's calibration warm-up sends through no_filter directly
    (SIM, "decide_no_filter", "policy.decide.warmup", HOT, True),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr, traced_walls, untraced_walls, threads_ratio: float = 0.0) -> dict:
    """Per-layer metrics, as means per traced cycle.

    Every metric is present; a boundary that was never called reads zero.
    """
    n = max(len(traced_walls), 1)

    def span(name):
        return tr.span_total(name) / n

    def count(name):
        return tr.counters.get(name, 0) / n

    m = {
        "ingest.read_log_s": span("ingest.read_log"),
        "ingest.read_log_calls": tr.span_calls("ingest.read_log") / n,
        "ingest.events_parsed": count("ingest.events_parsed"),
        "ingest.build_dataset_s": span("ingest.build_dataset"),
        "ingest.records": count("ingest.records"),
        "ingest.users_excluded": count("ingest.users_excluded"),
        "behavior.fit_s": span("behavior.fit"),
        "behavior.estimate_factors_s": span("behavior.estimate_factors"),
        "behavior.summarize_types_s": span("behavior.summarize_types"),
        "behavior.empty_cells": count("behavior.empty_cells"),
        "calibrate.refresh_s": span("calibrate.refresh"),
        "calibrate.pav_s": span("calibrate.pav"),
        "calibrate.window_pairs": count("calibrate.window_pairs"),
        "calibrate.breakpoints": count("calibrate.breakpoints"),
        "calibrate.pooled_values": count("calibrate.pooled_values"),
        "solver.solve_s": span("solver.solve"),
        "solver.cell_steps": count("solver.cell_steps"),
        "solver.never_send_cells": count("solver.never_send_cells"),
        "solver.always_send_cells": count("solver.always_send_cells"),
        "sim.warmup_s": span("sim.warmup"),
        "sim.run_experiment_s": span("sim.run_experiment"),
        "sim.user_passes": count("sim.user_passes"),
        "sim.sends": count("sim.sends"),
        "sim.churned_users": count("sim.churned_users"),
        "sim.threads2_over_threads1": threads_ratio,
        "sim.rl_discounted_opens_lift_pct": count("sim.rl_discounted_opens_lift_pct"),
        "cli.bytes_read": count("cli.bytes_read"),
        "cli.bytes_written": count("cli.bytes_written"),
    }
    m["ingest.events_per_s"] = _ratio(m["ingest.events_parsed"], m["ingest.read_log_s"])
    m["behavior.records_per_s"] = _ratio(count("behavior.records"), m["behavior.fit_s"])
    m["calibrate.pairs_per_s"] = _ratio(m["calibrate.window_pairs"],
                                        span("calibrate.fit_isotonic"))
    m["solver.cell_steps_per_s"] = _ratio(m["solver.cell_steps"], m["solver.solve_s"])

    calls, total, _, _ = tr.hot_stat("calibrate.apply")
    m["calibrate.apply_calls"] = calls / n
    m["calibrate.apply_s"] = total / n
    m["solver.q_send_calls"] = tr.hot_stat("solver.q_send")[0] / n
    calls, total, _, _ = tr.hot_stat("sim.simulate_pass")
    m["sim.simulate_pass_calls"] = calls / n
    m["sim.us_per_pass"] = _ratio(total, calls) * 1e6

    decisions = decide_s = 0.0
    for kind in ARMS + ("warmup",):
        calls, total, _, sends = tr.hot_stat(f"policy.decide.{kind}")
        decisions += calls
        decide_s += total
        if kind in ARMS:
            m[f"policy.send_frac.{kind}"] = _ratio(sends, calls)
    m["policy.decisions"] = decisions / n
    m["policy.decide_s"] = decide_s / n
    m["policy.ns_per_decision"] = _ratio(decide_s, decisions) * 1e9

    for stage in STAGES:
        m[f"cli.{stage}_s"] = span(f"cli.{stage}")
    self_s = tr.self_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
    m["trace.covered_frac"] = _ratio(sum(self_s.values()), sum(traced_walls))
    m["trace.overhead_ratio"] = (_ratio(statistics.median(traced_walls),
                                        statistics.median(untraced_walls))
                                 if traced_walls and untraced_walls else 0.0)
    return m
