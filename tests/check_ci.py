"""Every check that CI runs after the tests: `python -X dev -W error tests/check_ci.py`.

It takes no arguments. perfbench/run.py generates the seed-0 and seed-1 inputs
under perfbench/.cache; derived inputs and CLI artifacts go to a temporary
directory. Each check runs, also after one has failed, and prints `PASS <name>`
or `FAIL <name>: <what differs>`. Exits 1 if any failed. pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import subprocess
import sys
import tempfile
import traceback
from collections.abc import Iterator
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import record_bench  # noqa: E402
from notif_ltv import (BehaviorModel, LogParseError, PolicyTable, SimConfig,  # noqa: E402
                       SolverConfig, fit_isotonic, fit_sim_calibration, pav, read_log,
                       run_experiment, solve_policy, solver, state_values, warmup_events)
from notif_ltv.calibrate import window_mask  # noqa: E402
from notif_ltv.cli import _build_treatment  # noqa: E402
from oracles import policy_csv_oracle, read_log_oracle, state_values_reference  # noqa: E402

CACHE = os.path.join(ROOT, "perfbench", ".cache")
WORKLOADS = ("daily_refit", "ranker_regression", "solve_sweep", "ab_test")
END_TO_END = ("norm_items_per_s", "setup_s", "peak_rss_mb", "success_frac")
RECORDED = {"nproc", "python", "numpy", "sha", "parent_sha", "runs", "seconds", "seed"}
LOG_COLUMNS = ("user", "user_type", "timestamp", "raw_score", "outcome")


class Fault(Exception):
    """A benchmark run or CLI call that failed, so its check cannot go on."""


def bench(workload: str, seed: int, trace: bool = False) -> dict:
    """The result of a one-second perfbench/run.py run, which generates the
    workload's inputs at seed first. run.py exits 0 even when its output
    checks fail, so the "correct" field of the result on its last stdout
    line decides."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    if trace:
        args += ["--trace", "1"]
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise Fault(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        problems = dict.fromkeys(json.loads(lines[-2])["provenance"]["problems"])
        raise Fault(f"{' '.join(args)}: correct is not true: {'; '.join(problems)}")
    return result


def cli(*args: str) -> None:
    """Run `notif-ltv` on args through the module's __main__ entry, in its own
    interpreter, under -W error as tier-1 runs, so that a numpy warning fails
    the check instead of printing."""
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "notif_ltv.cli", *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    if proc.returncode:
        raise Fault(f"notif-ltv {' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()}")


def cached(inputs: str, name: str) -> str:
    """The path of file name among the benchmark inputs of `inputs`, "ab_test-0" say."""
    return os.path.join(CACHE, inputs, name)


def _dump(doc, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _differs(label: str, found: list[str]) -> list[str]:
    return [f"{label}: differs in " + ", ".join(found)] if found else []


def _bytes_differ(path: str, want: bytes, what: str) -> list[str]:
    return [] if _read(path) == want else [f"{path} differs from {what}"]


def now_of(inputs: str) -> str:
    return str(json.loads(_read(cached(inputs, "inputs.json")))["now"])


def ab_test_arms() -> list[dict]:
    """The seed-0 ab_test treatments, each policy table path made absolute
    so that a copy in another directory still finds its table."""
    path = cached("ab_test-0", "treatments.json")
    arms = json.loads(_read(path))
    for arm in arms:
        if "table_path" in arm:
            arm["table_path"] = os.path.join(os.path.dirname(path), arm["table_path"])
    return arms


def edge_treatments(tmp: str) -> str:
    """The seed-0 treatments with type 1's heuristic cutoff at 1.0, whose
    table row never sends, and a no_filter arm one send under the limits."""
    arms = ab_test_arms()
    next(a for a in arms if a["policy"] == "heuristic")["thresholds"]["1"] = 1.0
    arms.append({"name": "no_filter_minus1", "policy": "no_filter", "limit_adjustment": -1})
    return _dump(arms, os.path.join(tmp, "edge_treatments.json"))


def _suffixed(data: bytes, at: int, suffix: str) -> bytes:
    """The log data with suffix added to the user_id of its line `at`."""
    lines = data.splitlines(keepends=True)
    row = json.loads(lines[at])
    row["user_id"] += suffix
    lines[at] = json.dumps(row, ensure_ascii=False).encode() + b"\n"
    return b"".join(lines)


# each copy of a seed-0 log that the reader check reads: name -> (source, transform of its bytes)
LOG_COPIES = {
    "brace.jsonl": ("daily_refit-0", lambda data: _suffixed(data, -1, "{")),
    "crlf.jsonl": ("ranker_regression-0", lambda data: data.replace(b"\n", b"\r\n")),
    "padded.jsonl": ("ranker_regression-0",
                     lambda data: b"".join(b" " + line + b" \t\n" for line in data.splitlines())),
    "cr.jsonl": ("ranker_regression-0", lambda data: data.replace(b"\n", b"\r")),
    "no_final_newline.jsonl": ("ranker_regression-0", lambda data: data.rstrip(b"\n")),
    "non_ascii.jsonl": ("ranker_regression-0",
                        lambda data: _suffixed(data, data.count(b"\n") // 2, "\u00e9\u30e6")),
    "blank.jsonl": ("ranker_regression-0", lambda data: b"".join(
        line + (b"\n \t\n" if i % 7 == 6 else b"")
        for i, line in enumerate(data.splitlines(keepends=True)))),
    "padded_crlf.jsonl": ("ranker_regression-0", lambda data: b"".join(
        b" " + line + b"\t\r\n" for line in data.splitlines())),
}


def arm_differences(joint, alone, name: str) -> list[str]:
    """What of arm `name` differs between the joint report and the one-arm
    report `alone`: result fields but the baseline flag, the largest day's
    sends, and the kept log's columns by bytes."""
    found = []
    got, want = joint.result(name), alone.results[0]
    found += [f.name for f in dataclasses.fields(want)
              if f.name != "is_baseline" and getattr(got, f.name) != getattr(want, f.name)]
    if joint.max_daily_sends[name] != alone.max_daily_sends[name]:
        found.append("max_daily_sends")
    got, want = joint.events[name], alone.events[name]
    if got.users != want.users:
        found.append("log users")
    for column in LOG_COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            found.append(f"log {column}")
    return found


def arms(sim_path: str, treatments_path: str) -> Iterator[str]:
    """Each arm of the experiment that `notif-ltv simulate --emit-log` runs on
    the two files against that treatment run alone, as the baseline of a
    one-arm experiment with the same calibration."""
    config = SimConfig.from_dict(json.loads(_read(sim_path)))
    base_dir = os.path.dirname(os.path.abspath(treatments_path))
    drawn = [c for c, share in config.type_shares.items() if share > 0]
    entries = json.loads(_read(treatments_path))
    treatments = [_build_treatment(entry, base_dir, drawn)[0] for entry in entries]
    calibration = fit_sim_calibration(config)
    joint = run_experiment(config, treatments, calibration, keep_events=True)
    for treatment in treatments:
        alone = run_experiment(config, [dataclasses.replace(treatment, baseline=True)],
                               calibration, keep_events=True)
        yield from _differs(f"{sim_path} with {treatments_path}, arm {treatment.name}",
                            arm_differences(joint, alone, treatment.name))


def state_value_differences(model: BehaviorModel, config: SolverConfig) -> list[str]:
    found = []
    steps = config.horizon - 1
    if state_values(model, config, steps).tobytes() != \
            state_values_reference(model, config, steps).tobytes():
        found.append("state_values")
    got = solve_policy(model, config).thresholds
    with mock.patch.object(solver, "state_values", state_values_reference):
        want = solve_policy(model, config).thresholds
    if got.tobytes() != want.tobytes():
        found.append("solve_policy thresholds")
    return found


def window(inputs_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The raw scores and outcomes that the benchmark fits from inputs_dir:
    the 24 h window ending at inputs.json's `now` of events.jsonl, or the
    calibration warm-up of sim.json."""
    sim_path = os.path.join(inputs_dir, "sim.json")
    if os.path.exists(sim_path):
        log = warmup_events(SimConfig.from_dict(json.loads(_read(sim_path))))
        return log.raw_score, log.outcome
    now = json.loads(_read(os.path.join(inputs_dir, "inputs.json")))["now"]
    log = read_log(os.path.join(inputs_dir, "events.jsonl"))
    recent = window_mask(log.timestamp, now, 24)
    return log.raw_score[recent], log.outcome[recent]


def reference(scores, outcomes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints, element-wise pav values and tie-group means."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    first_of_group = np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1]))
    group = np.cumsum(first_of_group) - 1
    counts = np.bincount(group)
    pooled = np.bincount(group, weights=outcomes[order]) / counts
    fitted = np.array(pav(pooled.tolist(), counts.tolist()))
    return sorted_scores[first_of_group], fitted, pooled


def calibration_differences(inputs_dir: str) -> list[str]:
    scores, outcomes = window(inputs_dir)
    cmap = fit_isotonic(scores, outcomes)
    breakpoints, values, pooled = reference(scores, outcomes)
    found = [name for name, got, want in
             (("breakpoints", cmap.breakpoints, breakpoints), ("values", cmap.values, values))
             if np.array(got, dtype=float).tobytes() != want.tobytes()]
    bits = pooled.view(np.int64)
    runs = 1 + np.count_nonzero(bits[1:] != bits[:-1])
    return _differs(f"{inputs_dir} ({len(pooled)} tie groups in {runs} runs)", found)


def read_log_differences(path: str) -> list[str]:
    try:
        got = read_log(path)
    except LogParseError as exc:
        got = exc
    try:
        want = read_log_oracle(path)
    except LogParseError as exc:
        want = exc
    if isinstance(got, LogParseError) or isinstance(want, LogParseError):
        return [] if str(got) == str(want) else [f"read_log: {got}; oracle: {want}"]
    found = [] if got.users == want.users else ["users"]
    for name in LOG_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            found.append(f"{name} ({a.dtype}, {len(a)} rows; oracle {b.dtype}, {len(b)} rows)")
    return found


def indent_differences(path: str) -> list[str]:
    """The JSON file against json.dumps(doc, indent=2, sort_keys=True) of its
    own document, by bytes."""
    text = json.dumps(json.loads(_read(path)), indent=2, sort_keys=True) + "\n"
    return _bytes_differ(path, text.encode(), "the stdlib's indented text")


def policy_csv_differences(path: str) -> list[str]:
    """The CSV beside policy JSON path against the text that
    policy_csv_oracle writes for the JSON's table, by bytes."""
    text = policy_csv_oracle(PolicyTable.from_dict(json.loads(_read(path))))
    return _bytes_differ(os.path.splitext(path)[0] + ".csv", text.encode(), "policy_csv_oracle")


def benchmark_correctness(tmp: str) -> Iterator[str]:
    """Each workload's run at seed 0 must be correct. The runs generate the
    seed-0 inputs that the checks after this one read."""
    for workload in WORKLOADS:
        try:
            bench(workload, 0)
        except Fault as exc:
            yield str(exc)


def benchmark_recorder(tmp: str) -> Iterator[str]:
    """tests/record_bench.py writes the summary a BENCH_<pr>.json file holds,
    and exits non-zero when a run is not correct or gives no result. One
    one-second run of each workload must give a file with all four workloads
    correct and every recorded field."""
    path = os.path.join(tmp, "bench.json")
    if record_bench.main(["--runs", "1", "--seconds", "1", "--out", path]):
        raise Fault("tests/record_bench.py exited non-zero")
    doc = json.loads(_read(path))
    yield from (f"bench.json lacks {key}" for key in sorted(RECORDED - doc.keys()))
    for workload in WORKLOADS:
        side = doc["workloads"].get(workload, {}).get("change", {})
        metrics = side.get("metrics", {})
        if not (side.get("correct") is True and {"attempted", "failed"} <= side.keys()
                and all({"median", "q1", "q3"} <= metrics.get(m, {}).keys() for m in END_TO_END)):
            yield f"bench.json: {workload} lacks a field or a correct result"


def traced_simulator_counters(tmp: str) -> Iterator[str]:
    """The tracer wraps sim.warmup_events, the one function that runs the
    simulator's calibration warm-up, and sim.simulate_pass, which the
    simulation loop in sim._simulate calls through the module global once a
    pass. A traced ab_test run must time a warm-up above zero seconds, count
    96 passes a cycle (90 main passes and 6 warm-up passes on seed 0, one
    block each) and still give correct outputs."""
    metrics = bench("ab_test", 0, trace=True)["metrics"]
    if not metrics["sim.warmup_s"]["value"] > 0:
        yield f"sim.warmup_s is {metrics['sim.warmup_s']['value']}"
    if metrics["sim.simulate_pass_calls"]["value"] != 96:
        yield f"sim.simulate_pass_calls is {metrics['sim.simulate_pass_calls']['value']}"


def arms_alone(tmp: str) -> Iterator[str]:
    """The arms step through one shared state array, into which each block
    looks up every arm's policy table, and each must give the results and
    sends of that treatment run alone: on the seed-0 and seed-1 ab_test
    inputs, and on the seed-0 config with the edge treatments."""
    bench("ab_test", 1)
    for inputs in ("ab_test-0", "ab_test-1"):
        yield from arms(cached(inputs, "sim.json"), cached(inputs, "treatments.json"))
    yield from arms(cached("ab_test-0", "sim.json"), edge_treatments(tmp))


def arms_across_blocks(tmp: str) -> Iterator[str]:
    """A 2,500-user copy of the seed-0 config runs in three blocks of 970,
    970 and 560 users at 90 passes, so each arm's send and open masks and
    kept sends are joined across blocks; the treatments are the edge copy."""
    config = json.loads(_read(cached("ab_test-0", "sim.json")))
    config["num_users"] = 2500
    yield from arms(_dump(config, os.path.join(tmp, "sim_2500.json")), edge_treatments(tmp))


def saturated_scores(tmp: str) -> Iterator[str]:
    """A score noise of 1000 puts most logits past the range of math.exp, so
    many scores are exactly 0.0 or 1.0 and the warm-up's map pools into two
    runs, the upper one starting near 3.5e-229. simulate must succeed and
    write its logs. A heuristic arm at cutoff 0.1832, between the two runs'
    values, has that start as its raw threshold: every score below 2**-30
    lies within the pass's margin of it and takes the exact-score fallback,
    and each arm must still equal its lone run."""
    config = json.loads(_read(cached("ab_test-0", "sim.json")))
    config["score_noise"] = {c: 1000.0 for c in config["score_noise"]}
    config_path = _dump(config, os.path.join(tmp, "sim_noise.json"))
    treatments = ab_test_arms()
    treatments.append({"name": "heuristic_mid", "policy": "heuristic",
                       "thresholds": {c: 0.1832 for c in treatments[0]["thresholds"]}})
    treatments_path = _dump(treatments, os.path.join(tmp, "noise_treatments.json"))
    cli("simulate", "--sim-config", config_path, "--treatments", treatments_path,
        "--out-dir", os.path.join(tmp, "sim_noise"), "--emit-log")
    yield from arms(config_path, treatments_path)


def value_recursion(tmp: str) -> Iterator[str]:
    """state_values and solve_policy must give the reference's bits at every
    (gamma, horizon) pair of the sweep, on the seed-0 sweep model and on the
    kappa-shrunk model fitted from the seed-0 daily_refit log with the
    daily_refit workload's own arguments."""
    log = cached("daily_refit-0", "events.jsonl")
    cal, fitted = os.path.join(tmp, "cal.json"), os.path.join(tmp, "model.json")
    cli("calibrate", log, "--now", now_of("daily_refit-0"), "--window-hours", "24", "--out", cal)
    cli("fit", log, "--kappa", "0.4", "--min-samples", "10", "--calibration", cal, "--out", fitted)
    sweep = json.loads(_read(cached("solve_sweep-0", "inputs.json")))
    for path in (cached("solve_sweep-0", "model.json"), fitted):
        model = BehaviorModel.from_dict(json.loads(_read(path)))
        for gamma in sweep["gammas"]:
            for horizon in sweep["horizons"]:
                config = SolverConfig(gamma=gamma, horizon=horizon)
                yield from _differs(f"{path} gamma {gamma} horizon {horizon}",
                                    state_value_differences(model, config))


def json_artifacts(tmp: str) -> Iterator[str]:
    """The CLI writes JSON with its own indenter, which must give the bytes of
    json.dumps(doc, indent=2, sort_keys=True): for the calibration and model
    of the value recursion check and the sweep policies. A gamma of -0.0 is
    stored as +0.0, so its policy CSV must be gamma 0's. calibrate renders a
    map's values one text per run of CalibrationMap.runs, so two more maps
    are calibrated here: the seed-0 ranker_regression window, whose 5,998
    values are one run, and all 166,881 sends of the seed-0 daily_refit log
    (720 h), whose 128,495 values are 120 runs. The CLI renders each
    threshold once for a policy's JSON and its CSV, so each policy CSV must
    also be the text csv.writer gives for its policy JSON, cell by cell as
    policy_csv_oracle writes it."""
    model = cached("solve_sweep-0", "model.json")
    sweep = json.loads(_read(cached("solve_sweep-0", "inputs.json")))
    for g in ("0.9", "-0.0", "0"):
        cli("solve", model, "--gamma", g, "--out", os.path.join(tmp, f"policy_g{g}.json"))
    for g in sweep["gammas"]:
        for h in sweep["horizons"]:
            cli("solve", model, "--gamma", str(g), "--horizon", str(h),
                "--out", os.path.join(tmp, f"policy_g{g}_h{h}.json"))
    policies = sorted(glob.glob(os.path.join(tmp, "policy_g*.json")))
    cal_ranker, cal_all = os.path.join(tmp, "cal_ranker.json"), os.path.join(tmp, "cal_all.json")
    cli("calibrate", cached("ranker_regression-0", "events.jsonl"),
        "--now", now_of("ranker_regression-0"), "--window-hours", "24", "--out", cal_ranker)
    cli("calibrate", cached("daily_refit-0", "events.jsonl"),
        "--now", now_of("daily_refit-0"), "--window-hours", "720", "--out", cal_all)
    fitted = (os.path.join(tmp, "cal.json"), os.path.join(tmp, "model.json"))
    for path in (*fitted, cal_ranker, cal_all, *policies):
        yield from indent_differences(path)
    for path in policies:
        yield from policy_csv_differences(path)
    zero = _read(os.path.join(tmp, "policy_g0.csv"))
    yield from _bytes_differ(os.path.join(tmp, "policy_g-0.0.csv"), zero, "policy_g0.csv")


def provenance_hashes(tmp: str) -> Iterator[str]:
    """Every input an artifact lists under provenance.inputs must hash, by
    sha256sum, to the digest recorded there: the calibration, the model and
    the policies of the checks above, and the saturated-score report, whose
    treatments include the rl arm's policy table."""
    policies = sorted(glob.glob(os.path.join(tmp, "policy_g*.json")))
    artifacts = (os.path.join(tmp, "cal.json"), os.path.join(tmp, "model.json"), *policies,
                 os.path.join(tmp, "sim_noise", "report.json"))
    sums = "".join(f"{digest}  {path}\n" for artifact in artifacts
                   for path, digest in json.loads(_read(artifact))["provenance"]["inputs"].items())
    proc = subprocess.run(["sha256sum", "-c", "-"], input=sums, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode:
        yield from (line for line in proc.stdout.splitlines() if not line.endswith(": OK"))
        yield from proc.stderr.splitlines()


def calibration_pav(tmp: str) -> Iterator[str]:
    """fit_isotonic hands pav one member per run of tie groups with equal
    means; its map must have the bits of pav over every tie group on the
    ranker_regression and daily_refit windows and the ab_test warm-ups."""
    bench("ranker_regression", 1)
    for inputs in ("ranker_regression-0", "ranker_regression-1", "daily_refit-0",
                   "ab_test-0", "ab_test-1"):
        yield from calibration_differences(os.path.join(CACHE, inputs))


def send_log_reader(tmp: str) -> Iterator[str]:
    """read_log's block-wise array parse must give the oracle's log column
    for column. A `{` in the last line's user_id is valid but fails the byte
    proof, so that copy checks the per-block fallback. Every other copy is
    valid and takes the byte proof as it is, no block rewritten and no line
    stripped. The copy without its final newline ends in a line the last
    block holds without one, and the copy with a non-ASCII user_id on one
    line decodes that block as strict UTF-8."""
    paths = [cached("daily_refit-0", "events.jsonl"), cached("ranker_regression-0", "events.jsonl")]
    for name, (inputs, transform) in LOG_COPIES.items():
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "wb") as fh:
            fh.write(transform(_read(cached(inputs, "events.jsonl"))))
    for path in paths:
        yield from _differs(path, read_log_differences(path))


CHECKS = (
    ("Benchmark correctness", benchmark_correctness),
    ("Benchmark recorder", benchmark_recorder),
    ("Traced simulator counters", traced_simulator_counters),
    ("Simulator arms against each arm run alone", arms_alone),
    ("Simulator arms across blocks", arms_across_blocks),
    ("Simulator on saturated scores", saturated_scores),
    ("Value recursion against its 2-D reference", value_recursion),
    ("JSON artifacts against the stdlib's indented text", json_artifacts),
    ("Provenance hashes against sha256sum", provenance_hashes),
    ("Calibration fit against element-wise pav", calibration_pav),
    ("Send-log reader against its per-line oracle", send_log_reader),
)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="check_ci-") as tmp:
        for name, check in CHECKS:
            found = []
            try:
                found.extend(check(tmp))
            except Fault as exc:
                found.append(str(exc))
            except Exception as exc:  # one check's error must not stop the others
                traceback.print_exc()
                found.append(f"{type(exc).__name__}: {exc}")
            failed |= bool(found)
            print(f"FAIL {name}: " + "; ".join(found) if found else f"PASS {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
