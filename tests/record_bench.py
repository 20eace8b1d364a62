"""Record the benchmark's end-to-end metrics over repeated runs, as BENCH_<pr>.json.

Usage, from the root of a checkout:

    python tests/record_bench.py [--runs N] [--seconds S] [--out PATH] [--parent SHA]

Runs `perfbench/run.py --trace 0` N times on each workload of BENCHMARK.json,
at seed 0 and S seconds a run, taking the workloads in turn so a slow spell
of the machine spreads over all of them. Each run's result is the last line
of its stdout. With --parent, the commit SHA is extracted with `git archive`
into a temporary directory outside the checkout, the change runs from a
sibling directory beside it that holds the checkout's tracked files as they
are in the working tree, and every run is a pair, one run of each tree, the
side that runs first alternating from pair to pair. Both trees are plain
directories, neither inside a git work tree, so perfbench/run.py takes the
same path in each, and neither runs from the checkout itself, so its
location does not enter the comparison. Each starts with a copy of the
checkout's perfbench/.cache, if it has one, so both read the same inputs and
neither generates them in a timed pair. Both trees are removed afterwards,
on failure too.

For each workload and side ("change", and "parent" with --parent) the file
holds the median and quartiles of every end-to-end metric with its values
run by run, the attempted and failed operations summed over the runs, and,
with --parent, how many pairs that side was ahead in on each metric (better
by the metric's direction in BENCHMARK.json; ties count for neither). It
also records nproc, the Python and numpy versions, both SHAs, N, S and the
seed. Without --out the JSON goes to stdout.

Exits 1 if a run's result is not correct or its last line is not a result,
after writing the file; 2 if the parent cannot be extracted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0
# run.py times its worker out at 160 s; generation and set-up probes come on top
RUN_TIMEOUT_S = 900


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _copy_tracked(tree: str) -> None:
    """Copy every tracked file of the checkout, as the working tree holds it,
    into tree; a tracked file deleted from the working tree is left out."""
    for name in filter(None, _git("ls-files", "-z").split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.lexists(source):
            os.makedirs(os.path.dirname(os.path.join(tree, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(tree, name), follow_symlinks=False)


def _run(tree: str, workload: str, seconds: float) -> tuple[dict | None, str]:
    """One benchmark run in tree: its result, or None and the reason."""
    # run.py imports the package from its own checkout's src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {RUN_TIMEOUT_S} s"
    finally:
        # run.py's own workers are in its session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}, last line not JSON: {err.strip()[-500:]}"
    if not isinstance(result, dict) or not {"correct", "metrics"} <= result.keys():
        return None, f"last line is not a result: {lines[-1][:200]}"
    return result, ""


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _summary(results: list[dict | None], metrics: list[dict]) -> dict:
    done = [r for r in results if r is not None]
    side = {"correct": len(done) == len(results) and all(r["correct"] is True for r in done),
            "results": len(done),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done)}
    if done:
        side["metrics"] = {m["name"]: _quartiles([r["metrics"][m["name"]]["value"] for r in done])
                           for m in metrics}
    return side


def _ahead(mine: list[dict | None], theirs: list[dict | None], metric: dict) -> int:
    """Pairs in which mine's run was better than theirs on metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    name = metric["name"]
    return sum(1 for a, b in zip(mine, theirs) if a is not None and b is not None
               and sign * (a["metrics"][name]["value"] - b["metrics"][name]["value"]) > 0)


def record(runs: int, seconds: float, parent: str | None) -> tuple[dict, list[str]]:
    """The recorded document and the faults of the runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    doc = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "sha": _git("rev-parse", "HEAD"),
           "parent_sha": None, "runs": runs, "seconds": seconds, "seed": SEED,
           "workloads": {}}
    trees = {"change": ROOT}
    scratch = None
    faults = []
    try:
        if parent is not None:
            doc["parent_sha"] = _git("rev-parse", "--verify", f"{parent}^{{commit}}")
            scratch = tempfile.mkdtemp(prefix="record_bench-")
            trees = {side: os.path.join(scratch, side) for side in ("change", "parent")}
            archive = os.path.join(scratch, "parent.tar")
            _git("archive", f"--output={archive}", doc["parent_sha"])
            with tarfile.open(archive) as tar:
                tar.extractall(trees["parent"], filter="data")
            os.remove(archive)
            _copy_tracked(trees["change"])
            cache = os.path.join(ROOT, "perfbench", ".cache")
            if os.path.isdir(cache):
                for tree in trees.values():
                    shutil.copytree(cache, os.path.join(tree, "perfbench", ".cache"))
        results = {w: {side: [] for side in trees} for w in workloads}
        for i in range(runs):
            for j, w in enumerate(workloads):
                order = list(trees) if (i + j) % 2 == 0 else list(trees)[::-1]
                for side in order:
                    result, why = _run(trees[side], w, seconds)
                    if result is None or result["correct"] is not True:
                        faults.append(f"{w} {side} run {i}: {why or 'correct is not true'}")
                    results[w][side].append(result)
                    print(f"{w} {side} run {i}: "
                          f"{'no result' if result is None else result['correct']}",
                          file=sys.stderr)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    for w in workloads:
        sides = {side: _summary(results[w][side], metrics) for side in trees}
        if parent is not None:
            for side, other in (("change", "parent"), ("parent", "change")):
                for m in metrics:
                    if "metrics" in sides[side]:
                        sides[side]["metrics"][m["name"]]["ahead"] = \
                            _ahead(results[w][side], results[w][other], m)
        doc["workloads"][w] = sides
    return doc, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out")
    parser.add_argument("--parent")
    args = parser.parse_args(argv)
    if args.runs < 1 or not args.seconds > 0:
        parser.error("--runs must be >= 1 and --seconds > 0")
    try:
        doc, faults = record(args.runs, args.seconds, args.parent)
    except subprocess.CalledProcessError as exc:
        print(f"record_bench: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for fault in faults:
        print(f"record_bench: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
