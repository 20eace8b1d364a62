"""Command-line pipeline driver.

One subcommand per offline stage -- fit, solve, calibrate, simulate -- with
files as the interchange between stages. Flags override values from an
optional JSON config file; the fully resolved configuration and a content
hash of every input file are echoed into each output artifact so runs can
be audited and reproduced.

Exit codes: 0 success, 1 validation error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
from itertools import chain, repeat

import numpy as np

from . import policy
from .behavior import BehaviorModel, fit_behavior_model
from .calibrate import DEFAULT_WINDOW_HOURS, CalibrationMap, refresh, window_mask
from .core import SolverConfig, document, flag, integral, listed, number, read_field, text
from .ingest import DEFAULT_MIN_SAMPLES, LogParseError, read_log, build_dataset
# A treatment is a table, so nothing here calls a decide_* function; only
# perfbench's tracer reads those names, wrapping each one imported here.
from .policy import (HeuristicThresholds, decide_heuristic, decide_no_filter,  # noqa: F401
                     decide_rl)
from .sim import SimConfig, Treatment, check_treatments, run_experiment
from .solver import PolicyTable, solve_policy


class ValidationError(Exception):
    """Bad parameters in a flag, config file or treatments file; nothing was
    written."""


class DataError(Exception):
    """Inputs were unreadable, malformed, or insufficient."""


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# the types whose JSON text the C encoder writes without ", " in it
_SCALARS = frozenset({float, int, bool, type(None)})


class _Items(list):
    """A non-empty list held as the JSON texts of its items."""


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), with `indent` the newline
    and spaces that start each line at `value`'s depth.

    The stdlib writes an indented document with its pure-Python encoder, one
    call per item; here a non-empty list of scalars is one C-encoder call,
    whose ", " separators become the indented line breaks, and an `_Items`
    list's texts are joined by the same breaks. A non-empty dict with str
    keys recurses; anything else is the stdlib's own text, whose every
    newline (encoded JSON holds no raw one) takes `indent` instead.
    """
    inner = indent + "  "
    if type(value) is _Items:
        return "[" + inner + ("," + inner).join(value) + indent + "]"
    if isinstance(value, list) and value and set(map(type, value)) <= _SCALARS:
        return "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + indent + "]"
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        return ("{" + ",".join(inner + json.dumps(k) + ": " + _dumps(value[k], inner)
                               for k in sorted(value)) + indent + "}")
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _write_json(path, payload: dict) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline, as
    `_dumps` builds the same text."""
    _atomic_write(path, _dumps(payload) + "\n")


def _load_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an int too long, too deep
        raise DataError(f"invalid JSON in {what} file {path}: {exc}") from exc


def _provenance(command: str, resolved: dict, *paths) -> dict:
    """The command, its resolved configuration, and the SHA-256 of each input
    file in `paths` that is set."""
    inputs = {}
    for path in filter(None, paths):
        with open(path, "rb") as fh:
            inputs[str(path)] = hashlib.file_digest(fh, "sha256").hexdigest()
    return {"command": command, "config": resolved, "inputs": inputs}


@contextlib.contextmanager
def _reading(what: str, error: type[Exception]):
    """Re-raise a bad value read from `what` as `error`: ValidationError (exit 1) for
    a config or treatments file, DataError (exit 2) for another stage's artifact."""
    try:
        yield
    except (ValueError, OverflowError) as exc:  # OverflowError: too big for an int64 array
        raise error(f"{what}: {exc}") from exc


def _resolve(cli_value, file_config, key: str, read, default):
    return read_field(file_config, key, read, default=default) if cli_value is None else cli_value


def cmd_fit(args) -> int:
    cfg = _load_json(args.config, "config") if args.config else {}
    with _reading("fit config", ValidationError):
        kappa = _resolve(args.kappa, cfg, "kappa", number, None)
        min_samples = _resolve(args.min_samples, cfg, "min_samples", integral,
                               DEFAULT_MIN_SAMPLES)
    if kappa is None:
        raise ValidationError("fit requires --kappa (or 'kappa' in the config file)")
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError(f"kappa must be in [0, 1], got {kappa}")
    if min_samples < 1:
        raise ValidationError(f"min_samples must be >= 1, got {min_samples}")

    calibration = None
    if args.calibration:
        with _reading(f"calibration {args.calibration}", DataError):
            calibration = CalibrationMap.from_dict(_load_json(args.calibration, "calibration"))

    log = read_log(args.log)
    records = build_dataset(log, min_samples=min_samples)
    if len(records) == 0:
        raise DataError(f"no users eligible: every user has fewer than "
                        f"{min_samples} first-half sends")
    model = fit_behavior_model(records, kappa=kappa, calibration=calibration)

    resolved = {"log": args.log, "kappa": kappa, "min_samples": min_samples,
                "calibration": args.calibration}
    payload = model.to_dict()
    payload["provenance"] = _provenance("fit", resolved, args.log, args.calibration)
    _write_json(args.out, payload)

    n_cells = model.factors.bounds[1] - model.factors.bounds[0] + 1
    excluded = len(log.users) - len(np.unique(records.user))
    print(f"fitted behavior model on {len(records)} records "
          f"from {len(log.users)} users -> {args.out}")
    print(f"  read {len(log)} sends; {excluded} users excluded with fewer than "
          f"{min_samples} first-half sends")
    for i, c in enumerate(model.types):
        populated = int((model.factors.counts[i] > 0).sum())
        total = int(model.factors.counts[i].sum())
        print(f"  type {c}: {populated}/{n_cells} cells populated, "
              f"{total} records, mean open {model.type_mean_open[c]:.4f}")
    return 0


def _policy_texts(table: PolicyTable) -> tuple[dict, str]:
    """The table's JSON document, rows as `_Items`, and CSV text, from one
    rendering of each row, json.dumps(row)[1:-1].split(", "): a CSV cell is
    its JSON item, a float's repr, or never_send for null; none needs quotes."""
    doc = table.to_dict()
    rows = doc["thresholds"] = {c: _Items(json.dumps(row)[1:-1].split(", "))
                                for c, row in doc["thresholds"].items()}
    return doc, "user_type,streak,threshold\n" + "".join(
        [f"{c},{s},{'never_send' if t == 'null' else t}\n"
         for c, row in rows.items() for s, t in enumerate(row, table.bounds[0])])


def cmd_solve(args) -> int:
    # the table's CSV goes beside --out with a .csv extension, so a .csv
    # --out would be overwritten by it (on a case-insensitive disk too)
    stem, ext = os.path.splitext(args.out)
    if ext.lower() == ".csv":
        raise ValidationError(f"--out {args.out} would be overwritten by the policy CSV; "
                              f"give the policy JSON another extension")
    cfg = _load_json(args.config, "config") if args.config else {}
    with _reading("solve config", ValidationError):
        config = SolverConfig(
            gamma=_resolve(args.gamma, cfg, "gamma", number, SolverConfig.gamma),
            horizon=_resolve(args.horizon, cfg, "horizon", integral, SolverConfig.horizon))
    with _reading(f"model {args.model}", DataError):
        model = BehaviorModel.from_dict(_load_json(args.model, "model"))
    table = solve_policy(model, config)

    resolved = {"model": args.model, "gamma": config.gamma, "horizon": config.horizon}
    payload, csv_text = _policy_texts(table)
    payload["provenance"] = _provenance("solve", resolved, args.model)
    _write_json(args.out, payload)
    csv_path = stem + ".csv"
    _atomic_write(csv_path, csv_text)

    thresholds = table.thresholds
    finite = np.isfinite(thresholds)
    counts = np.count_nonzero(finite, axis=1).tolist()
    lows = np.min(thresholds, axis=1, initial=math.inf, where=finite).tolist()
    highs = np.max(thresholds, axis=1, initial=-math.inf, where=finite).tolist()
    print(f"solved policy table ({len(table.types)} types x "
          f"{thresholds.shape[1]} streaks) -> {args.out}, {csv_path}")
    for c, count, lo, hi in zip(table.types, counts, lows, highs):
        if not count:  # a row of never-send cells has no finite threshold
            lo = hi = math.nan
        print(f"  type {c}: thresholds in [{lo:.6f}, {hi:.6f}], "
              f"never-send cells: {thresholds.shape[1] - count}")
    return 0


def _calibration_doc(cmap: CalibrationMap) -> dict:
    """The map's JSON document, its values as `_Items`: each run's value is
    rendered once, json.dumps(values)[1:-1].split(", "), and its text repeated
    over the run (a float's text holds no ", ")."""
    _, values, lengths = cmap.runs
    doc = cmap.to_dict()
    texts = json.dumps(values.tolist())[1:-1].split(", ")
    doc["values"] = _Items(chain.from_iterable(map(repeat, texts, lengths.tolist())))
    return doc


def cmd_calibrate(args) -> int:
    cfg = _load_json(args.config, "config") if args.config else {}
    with _reading("calibrate config", ValidationError):
        now = _resolve(args.now, cfg, "now", integral, None)
        window_hours = _resolve(args.window_hours, cfg, "window_hours", integral,
                                DEFAULT_WINDOW_HOURS)
    if now is None:
        raise ValidationError("calibrate requires --now (or 'now' in the config file)")
    if window_hours <= 0:
        raise ValidationError(f"window_hours must be > 0, got {window_hours}")

    log = read_log(args.log)
    cmap = refresh(log, now=now, window_hours=window_hours)

    resolved = {"log": args.log, "now": now, "window_hours": window_hours}
    payload = _calibration_doc(cmap)
    payload["provenance"] = _provenance("calibrate", resolved, args.log)
    _write_json(args.out, payload)
    in_window = int(np.count_nonzero(window_mask(log.timestamp, now, window_hours)))
    print(f"fitted calibration on window ({now - window_hours * 3600}, {now}] "
          f"-> {args.out}")
    print(f"  {in_window} of {len(log)} sends in the window, "
          f"{len(cmap.breakpoints)} distinct scores")
    print(f"  {len(cmap.breakpoints)} breakpoints pooled into {len(cmap.runs[1])} "
          f"distinct values, raw scores "
          f"[{cmap.breakpoints[0]:.4f}, {cmap.breakpoints[-1]:.4f}], "
          f"calibrated range [{cmap.values[0]:.4f}, {cmap.values[-1]:.4f}]")
    return 0


def _cover(types: list[int], covered) -> None:
    """Raise ValueError unless `covered` holds every one of `types`."""
    missing = sorted(set(types) - set(covered))
    if missing:
        raise ValueError(f"thresholds have no entry for user type(s) {missing}")


def _check_file_name(name: str) -> None:
    """Raise ValueError unless events_<name>.jsonl.tmp, the longest file name
    --emit-log writes for a treatment, can be a file name."""
    if "/" in name or "\0" in name:
        raise ValueError(f"treatment name {name!r} cannot be part of a file name: "
                         "it holds '/' or NUL")
    try:
        size = len(f"events_{name}.jsonl.tmp".encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which a JSON string can escape
        raise ValueError(f"treatment name {name!r} is not UTF-8 text: it holds a lone "
                         "surrogate") from None
    if size > 255:  # NAME_MAX on Linux and macOS
        raise ValueError(f"treatment name {name!r} is too long: events_<name>.jsonl.tmp "
                         f"takes {size} bytes, more than a file name's 255")


def _build_treatment(entry: dict, base_dir: str,
                     types: list[int]) -> tuple[Treatment, str | None]:
    """The treatment of one entry, whose thresholds must cover every user type
    in `types`, and the path of the policy table it read, if any."""
    name = read_field(entry, "name", text)
    _check_file_name(name)
    kind = read_field(entry, "policy", text)
    path = None
    if kind == "no_filter":
        table = policy.NO_FILTER
    elif kind == "heuristic":
        ks = HeuristicThresholds.from_dict(read_field(entry, "thresholds", document))
        _cover(types, ks.by_type)
        table = ks.table
    elif kind == "rl":
        # join keeps an absolute table_path as it is
        path = os.path.join(base_dir, read_field(entry, "table_path", text))
        with _reading(f"policy table {path}", DataError):
            table = PolicyTable.from_dict(_load_json(path, "policy table"))
            _cover(types, table.types)
    else:
        raise ValueError(f"treatment {name!r}: unknown policy {kind!r} "
                         "(expected no_filter, heuristic, or rl)")
    return Treatment(name=name, table=table,
                     limit_adjustment=read_field(entry, "limit_adjustment", integral, default=0),
                     baseline=read_field(entry, "baseline", flag, default=False)), path


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ValidationError(f"threads must be >= 1, got {args.threads}")
    sim_cfg_dict = _load_json(args.sim_config, "simulation config")
    with _reading("simulation config", ValidationError):
        if args.seed is not None:
            document(sim_cfg_dict, "simulation config")["master_seed"] = args.seed
        config = SimConfig.from_dict(sim_cfg_dict)

    treatments_doc = _load_json(args.treatments, "treatments")
    base_dir = os.path.dirname(os.path.abspath(args.treatments))
    with _reading("treatments", ValidationError):
        entries = listed(treatments_doc, "treatments", None, document)
        if not entries:
            raise ValueError("the file defines no treatments")
    # a policy is looked up for every user type that can be drawn, so check
    # them all here rather than fail in whichever block first draws one
    drawn = [c for c, share in config.type_shares.items() if share > 0]
    treatments, tables = [], []
    for i, entry in enumerate(entries):
        with _reading(f"treatments[{i}]", ValidationError):
            treatment, table_path = _build_treatment(entry, base_dir, drawn)
        treatments.append(treatment)
        tables.append(table_path)
    with _reading("treatments", ValidationError):
        check_treatments(treatments)
        # --emit-log writes events_<name>.jsonl, and a case-insensitive disk
        # stores two names that differ only in case as one file
        folded = {}
        for t in treatments:
            other = folded.setdefault(t.name.casefold(), t.name)
            if other != t.name:
                raise ValueError(f"treatment names {other!r} and {t.name!r} differ only in "
                                 "case, so their event logs would share a file name")

    report = run_experiment(config, treatments, keep_events=args.emit_log)

    os.makedirs(args.out_dir, exist_ok=True)
    # --threads has no effect; keeping it out of the echo keeps reports
    # byte-identical whatever value it is given
    resolved = {"sim_config": args.sim_config, "treatments": args.treatments,
                "seed": config.master_seed}
    payload = report.to_dict()
    payload["config"] = config.to_dict()
    payload["provenance"] = _provenance("simulate", resolved, args.sim_config, args.treatments,
                                        *tables)
    report_path = os.path.join(args.out_dir, "report.json")
    _write_json(report_path, payload)
    table_text = report.to_table_text()
    _atomic_write(os.path.join(args.out_dir, "report_table.txt"), table_text)
    _atomic_write(os.path.join(args.out_dir, "report_per_type.csv"),
                  report.to_per_type_csv())
    if args.emit_log:
        for name, log in report.events.items():
            _atomic_write(os.path.join(args.out_dir, f"events_{name}.jsonl"), log.to_jsonl())

    print(f"simulated {config.num_users} users x {config.days} days x "
          f"{config.passes_per_day} passes -> {args.out_dir}")
    print(table_text, end="")
    return 0


# built once per process: parsing leaves the parser as it was
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notif-ltv",
        description="Fit a streak-response model from send logs, solve a "
                    "long-term-value send policy, and evaluate it in a "
                    "deterministic synthetic A/B simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate the behavior model from a send log")
    fit.add_argument("log", help="JSON Lines send log")
    fit.add_argument("--config", help="JSON file with default parameters")
    fit.add_argument("--kappa", type=float, help="causal fraction in [0, 1]")
    fit.add_argument("--min-samples", type=int, dest="min_samples",
                     help=f"first-half sends needed to include a user "
                          f"(default {DEFAULT_MIN_SAMPLES})")
    fit.add_argument("--calibration", help="optional calibration map JSON; "
                                           "raw scores are used as-is without it")
    fit.add_argument("--out", required=True, help="output model JSON path")

    solve = sub.add_parser("solve", help="solve the send-threshold policy table")
    solve.add_argument("model", help="behavior model JSON from fit")
    solve.add_argument("--config", help="JSON file with default parameters")
    solve.add_argument("--gamma", type=float,
                       help=f"discount factor in [0, 1) (default {SolverConfig.gamma})")
    solve.add_argument("--horizon", type=int,
                       help=f"decision opportunities (default {SolverConfig.horizon})")
    solve.add_argument("--out", required=True, help="output policy JSON path, not a .csv "
                                                    "(a .csv sibling is written too)")

    cal = sub.add_parser("calibrate", help="fit the isotonic calibration map")
    cal.add_argument("log", help="JSON Lines send log")
    cal.add_argument("--config", help="JSON file with default parameters")
    cal.add_argument("--now", type=int, help="window end, seconds since epoch")
    cal.add_argument("--window-hours", type=int, dest="window_hours",
                     help=f"lookback window (default {DEFAULT_WINDOW_HOURS})")
    cal.add_argument("--out", required=True, help="output calibration JSON path")

    simp = sub.add_parser("simulate", help="run an A/B experiment in the simulator")
    simp.add_argument("--sim-config", required=True, dest="sim_config",
                      help="simulation config JSON")
    simp.add_argument("--treatments", required=True, help="treatments JSON")
    simp.add_argument("--seed", type=int, help="override the config master seed")
    simp.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility and ignored: the simulator "
                           "runs on one thread")
    simp.add_argument("--emit-log", action="store_true", dest="emit_log",
                      help="also write each treatment's event stream as JSONL")
    simp.add_argument("--out-dir", required=True, dest="out_dir",
                      help="directory for report artifacts")
    return parser


_HANDLERS = {"fit": cmd_fit, "solve": cmd_solve,
             "calibrate": cmd_calibrate, "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LogParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
