"""Benchmark for the notif-ltv offline pipeline, simulator and solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are defined in BENCHMARK.json at the checkout root;
perfbench/intent.json says which end-to-end metric each per-layer metric
should move, and on which workload. The run:

1. generates the workload's inputs from --seed with perfbench/gen.py and
   caches them under perfbench/.cache (generation is never timed);
2. starts fresh interpreters that import notif_ltv from ./src and stop at
   the first timed call, for the set-up time (median of several);
3. starts perfbench/worker.py, which calls notif_ltv.cli.main in-process in
   a closed loop for --seconds and checks every stage's outputs;
4. prints a provenance line, then the result as the last line of stdout:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 0 the metrics are the end-to-end metrics, measured untraced.
Throughput is scaled to a machine of nominal speed by the fixed kernel in
perfbench/speed.py, timed between the stages of the same run; the raw
wall-time figure is in the provenance line.
With --trace 1 the worker also runs the workload with timing wrappers
around each layer's public functions and reports the per-layer metrics;
the spans go to perfbench/.out/trace-<workload>-<seed>.json.

--record-reference stores the first cycle's outputs as the reference that
runs on the same inputs are compared against (perfbench/reference/).
The rl arm's policy table, perfbench/fixtures/rl_policy.json, was solved
once from gen.behavior_model() with `solve --gamma 0.9 --horizon 250`.

Exit status is 0 when a result was printed, 2 when no run was possible,
for example because ./src/notif_ltv is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("daily_refit", "ranker_regression", "solve_sweep", "ab_test")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "notif_ltv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _provenance(args) -> dict:
    # a checkout that is not itself a git work tree has no SHA of its own
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and os.path.samefile(top, ROOT) else None
    dirty = None if sha is None else bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_sha": sha, "git_dirty": dirty,
            "src_sha256": _src_digest(), "loadavg_start": list(os.getloadavg())}


def _spawn(spec: dict, tag: str) -> tuple[dict, float]:
    """Run the worker on spec; return its result and its spawn time."""
    os.makedirs(spec["work_dir"], exist_ok=True)
    spec_path = os.path.join(spec["work_dir"], f"spec-{tag}.json")
    spec = dict(spec, result=os.path.join(spec["work_dir"], f"result-{tag}.json"))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawned = time.monotonic()
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {tag} exited with {done.returncode}: {done.stderr[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), spawned


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    if not os.path.exists(os.path.join(ROOT, "src", "notif_ltv", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(ROOT, 'src', 'notif_ltv')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    provenance = _provenance(args)
    inputs_dir, facts = gen.ensure_inputs(CACHE, args.workload, args.seed)
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spec = {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "inputs_dir": inputs_dir, "facts": facts, "work_dir": work_dir,
            "seconds": args.seconds, "trace": bool(args.trace),
            "record": args.record_reference}

    def probe(i):
        probed, spawned = _spawn(dict(spec, probe=True), f"probe{i}")
        return probed["ready"] - spawned

    try:
        # probes on both sides of the timed run, so they sample the machine
        # over the whole run rather than one moment of it
        setups = [probe(i) for i in range(SETUP_SAMPLES // 2)]
        result, spawned = _spawn(spec, "run")
        setups.append(result["ready"] - spawned)
        setups += [probe(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    provenance.update(numpy=result["numpy"], loadavg_end=list(os.getloadavg()),
                      cycles=result["cycles"], cycle_s=result.get("cycle_s"),
                      setup_s=setups, inputs_sha256=facts["inputs_sha256"],
                      problems=result["problems"])
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layers = result["layers"]
        metrics = {m["name"]: _metric(layers[m["name"]], m["unit"])
                   for m in bench["per_layer"]}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "layers": layers, "trace": result["trace"]},
                      fh, indent=1)
    else:
        provenance.update(items_per_s=result["items_per_s"],
                          kernel_mean_s=result["kernel_mean_s"])
        values = {"norm_items_per_s": result["norm_items_per_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "success_frac": 1.0 - failed / attempted if attempted else 0.0}
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in bench["end_to_end"]}
    return provenance, {"correct": failed == 0 and attempted > 0,
                        "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", dest="record_reference")
    args = parser.parse_args(argv)
    try:
        provenance, result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
