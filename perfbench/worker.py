"""One benchmark workload in a fresh interpreter.

run.py starts `python3 perfbench/worker.py SPEC_JSON_PATH`. The worker
imports `notif_ltv` from the checkout's `src`, then calls
`notif_ltv.cli.main(argv)` in-process, one stage after another (a closed
loop, concurrency 1), repeating the workload's cycle of stages until the
run's seconds are used. Every stage's output is checked after the cycle,
outside the timed region. The result is written as JSON to the spec's
`result` path.

Spec keys: root, workload, seed, inputs_dir, facts, work_dir, seconds,
trace, result, and optionally probe (stop at the first timed call) or
record (store the first cycle's output snapshots as the reference).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

import checks
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
# share of each stage's duration spent timing the speed kernel before the next
KERNEL_SHARE = 0.1


class Stage:
    """One CLI invocation and the artifact it must produce."""

    def __init__(self, command: str, argv: list[str], output: str, kind: str):
        self.command, self.argv, self.output, self.kind = command, argv, output, kind


class Plan:
    """A workload's cycle of stages and the work items one cycle does.

    verify holds untimed extra stages run once per run; threads2 is the
    cycle at two worker threads, timed once in the traced run.
    """

    def __init__(self, cycle, items, verify=(), threads2=()):
        self.cycle, self.items = list(cycle), items
        self.verify, self.threads2 = list(verify), list(threads2)


def make_plan(spec: dict) -> Plan:
    workload, facts = spec["workload"], spec["facts"]
    src = spec["inputs_dir"]
    out = spec["work_dir"]

    def path(name):
        return os.path.join(out, name)

    if workload in ("daily_refit", "ranker_regression"):
        log = os.path.join(src, "events.jsonl")
        cycle = [Stage("calibrate", ["calibrate", log, "--now", str(facts["now"]),
                                     "--window-hours", "24", "--out", path("cal.json")],
                       path("cal.json"), "calibration")]
        if workload == "daily_refit":
            cycle += [
                Stage("fit", ["fit", log, "--kappa", "0.4", "--min-samples", "10",
                              "--calibration", path("cal.json"), "--out", path("model.json")],
                      path("model.json"), "model"),
                Stage("solve", ["solve", path("model.json"), "--gamma", "0.9",
                                "--horizon", "250", "--out", path("policy.json")],
                      path("policy.json"), "thresholds"),
            ]
        return Plan(cycle, facts["events"])
    if workload == "solve_sweep":
        model = os.path.join(src, "model.json")
        cycle = []
        for gamma in facts["gammas"]:
            for horizon in facts["horizons"]:
                name = f"policy_g{gamma}_h{horizon}.json"
                cycle.append(Stage("solve", ["solve", model, "--gamma", str(gamma),
                                             "--horizon", str(horizon), "--out", path(name)],
                                   path(name), "thresholds"))
        return Plan(cycle, facts["cells"] * sum(facts["horizons"]) * len(facts["gammas"]))
    if workload == "ab_test":
        def simulate(out_dir, threads, *extra):
            return Stage("simulate", ["simulate", "--sim-config", os.path.join(src, "sim.json"),
                                      "--treatments", os.path.join(src, "treatments.json"),
                                      "--out-dir", path(out_dir), "--threads", str(threads),
                                      *extra],
                         os.path.join(path(out_dir), "report.json"), "report")
        # the report must not depend on the thread count or on --emit-log, so
        # every variant writes where its bytes are compared with the timed one
        return Plan([simulate("ab", 1)],
                    facts["users"] * facts["days"] * facts["passes"] * facts["arms"],
                    verify=[simulate("ab_verify", 1, "--emit-log")],
                    threads2=[simulate("ab", 2)])
    raise ValueError(f"unknown workload {workload!r}")


def _io_counters() -> tuple[int, int]:
    """Bytes this process has read and written, or zeros where unavailable."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(":") for line in fh if ":" in line)
        return int(fields["rchar"]), int(fields["wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


class Runner:
    """Runs stages, checks their outputs and counts attempts and failures."""

    def __init__(self, cli_main, spec: dict, reference: dict | None):
        self.cli_main = cli_main
        self.spec = spec
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.snapshots: dict[str, object] = {}
        self.kernel_s: list[float] = []
        self._last_stage_s = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _time_kernel(self) -> None:
        """Sample the machine's speed for a share of the last stage's time,
        so the samples spread over the run like the stages do."""
        spent = 0.0
        while not spent or spent < KERNEL_SHARE * self._last_stage_s:
            self.kernel_s.append(speed.kernel_seconds())
            spent += self.kernel_s[-1]

    def _invoke(self, stage: Stage, tracer=None) -> float | None:
        """Run one stage; return its wall time, or None when it failed."""
        self._time_kernel()
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli_main(stage.argv)
            else:
                read0, written0 = _io_counters()
                with tracer.span(f"cli.{stage.command}"):
                    code = self.cli_main(stage.argv)
                read1, written1 = _io_counters()
                tracer.count("cli.bytes_read", read1 - read0)
                tracer.count("cli.bytes_written", written1 - written0)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a raising stage is a counted failure, not a crash
            self.fail(f"{stage.command} raised {exc!r}")
            return None
        self._last_stage_s = time.perf_counter() - start
        if code != 0:
            self.fail(f"{stage.command} exited with {code}")
            return None
        return self._last_stage_s

    def cycle(self, stages: list[Stage], tracer=None) -> float | None:
        """Run the stages in order; return the sum of their wall times, or
        None when a stage failed (later stages of the cycle are not attempted)."""
        wall = 0.0
        for stage in stages:
            stage_s = self._invoke(stage, tracer)
            if stage_s is None:
                return None
            wall += stage_s
        if tracer is not None:
            tracer.flush()
        for stage in stages:
            self.check(stage)
        return wall

    def check(self, stage: Stage, extra=None) -> None:
        """Check one invocation's output; a failed check fails it once.

        extra(doc) may return further problems for this invocation.
        """
        label = os.path.basename(stage.output)
        try:
            with open(stage.output, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
            problems = checks.CHECKS[stage.kind](doc)
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault(stage.output, digest) != digest:
                problems.append(f"{label}: output differs from the run's first cycle")
            if not problems:
                snap = checks.snapshot(stage.kind, doc)
                self.snapshots.setdefault(label, snap)
                if self.reference is not None:
                    problems += checks.compare(stage.kind, snap,
                                               self.reference["outputs"].get(label))
            if extra is not None:
                problems += extra(doc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"{label}: unreadable output ({exc!r})"]
        if problems:
            self.fail("; ".join(problems))

    def verify(self, stages: list[Stage], timed_output: str) -> None:
        """Untimed extra invocations with the event log on: checks daily send
        limits and that logging did not change the timed cycle's report."""
        for stage in stages:
            if self._invoke(stage) is not None:
                self.check(stage, lambda report, s=stage: self._logged(s, report, timed_output))

    def _logged(self, stage: Stage, report: dict, timed_output: str) -> list[str]:
        problems = []
        timed = self.digests.get(timed_output)
        if timed is not None and timed != self.digests.get(stage.output):
            problems.append("report.json changes when the event log is emitted")
        out_dir = os.path.dirname(stage.output)
        limits = self.spec["facts"]["limits"]
        for t in report["treatments"]:
            arm_limits = {c: max(v + t["limit_adjustment"], 0) for c, v in limits.items()}
            with open(os.path.join(out_dir, f"events_{t['name']}.jsonl"),
                      encoding="utf-8") as fh:
                problems += checks.send_limits(fh, arm_limits, t["name"])
        return problems


def _load_reference(spec: dict) -> tuple[dict | None, str | None]:
    """The stored reference if it applies to these inputs, plus a problem
    when the reference's own seed no longer generates its inputs."""
    path = os.path.join(REFERENCE_DIR, f"{spec['workload']}.json")
    if spec.get("record") or not os.path.exists(path):
        return None, None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["inputs_sha256"] == spec["facts"]["inputs_sha256"]:
        return ref, None
    if ref["seed"] == spec["seed"]:
        return None, "generated inputs differ from the stored reference's inputs"
    return None, None


def _timed_loop(runner: Runner, stages, seconds: float, tracer=None) -> list[float]:
    walls = []
    start = time.perf_counter()
    while True:
        wall = runner.cycle(stages, tracer)
        if wall is not None:
            walls.append(wall)
        if time.perf_counter() - start >= seconds:
            return walls


def run(spec: dict, cli_main, ready: float) -> dict:
    plan = make_plan(spec)
    stages = plan.cycle
    os.makedirs(spec["work_dir"], exist_ok=True)
    reference, ref_problem = _load_reference(spec)
    runner = Runner(cli_main, spec, reference)
    if ref_problem:
        runner.attempted += 1
        runner.fail(ref_problem)
    result = {"ready": ready}
    seconds = float(spec["seconds"])
    if not spec["trace"]:
        walls = _timed_loop(runner, stages, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cycles"] = len(walls)
        result["cycle_s"] = walls
        result["items_per_cycle"] = plan.items
        result["items_per_s"] = (statistics.median(plan.items / w for w in walls)
                                 if walls else 0.0)
        result["kernel_mean_s"] = statistics.mean(runner.kernel_s)
        # scaled to the nominal machine with means over the same interleaved
        # time windows; medians of the two would not cover the same periods
        result["norm_items_per_s"] = (plan.items * len(walls) / sum(walls)
                                      * result["kernel_mean_s"] / speed.NOMINAL_S
                                      if walls else 0.0)
    else:
        import layers
        import tracer as tracing

        untraced = _timed_loop(runner, stages, seconds / 2)
        tr = tracing.Tracer()
        undo = tracing.install(tr, layers.BOUNDARIES)
        try:
            traced = _timed_loop(runner, stages, seconds / 2, tr)
        finally:
            tracing.uninstall(undo)
        threads_ratio = 0.0
        if plan.threads2 and untraced:
            wall = runner.cycle(plan.threads2)
            if wall is not None:
                threads_ratio = wall / statistics.median(untraced)
        result["layers"] = layers.layer_metrics(tr, traced, untraced, threads_ratio)
        result["trace"] = tr.to_dict()
        result["cycles"] = len(traced)
    runner.verify(plan.verify, stages[-1].output)
    if spec.get("record"):
        with open(os.path.join(REFERENCE_DIR, f"{spec['workload']}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"seed": spec["seed"], "inputs_sha256": spec["facts"]["inputs_sha256"],
                       "outputs": runner.snapshots}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import notif_ltv
    import notif_ltv.cli

    if not os.path.abspath(notif_ltv.__file__).startswith(src + os.sep):
        print(f"notif_ltv imported from {notif_ltv.__file__}, not from {src}", file=sys.stderr)
        return 2
    ready = time.monotonic()
    if spec.get("probe"):
        result = {"ready": ready}
    else:
        result = run(spec, notif_ltv.cli.main, ready)
    import numpy

    result["numpy"] = numpy.__version__
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
