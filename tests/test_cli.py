"""End-to-end command behavior, exit codes, and artifact determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import notif_ltv
from notif_ltv import NEVER_SEND, BehaviorModel, CalibrationMap, PolicyTable, ramp_factor_table
from notif_ltv.cli import _dumps, main

# an integer that no float can hold
HUGE = 10 ** 400

# strings with the writer's list separator, a newline, quotes and non-ASCII
_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from([", ", "a, b", "\n", 'say "hi"', "naïve, ü", "\\, /", "€"]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
                    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
                    _TEXT)
# tuples and int-keyed dicts take the writer's delegated path
_DOCUMENTS = st.recursive(_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=6), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=6), st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_json_writer_gives_the_stdlib_indented_text(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture
def send_log(tmp_path):
    """Synthetic log: 30 users x 40 sends with score-correlated outcomes."""
    rng = np.random.default_rng(42)
    path = tmp_path / "log.jsonl"
    with open(path, "w") as fh:
        for u in range(30):
            utype = u % 6 + 1
            base = float(rng.uniform(0.2, 0.7))
            for t in range(40):
                score = float(np.clip(base + rng.normal(0, 0.15), 0.001, 0.999))
                outcome = int(rng.random() < base)
                fh.write(json.dumps({
                    "user_id": f"u{u:03d}", "user_type": utype,
                    "timestamp": t * 3600, "raw_score": score,
                    "outcome": outcome}) + "\n")
    return path


def run(args):
    return main([str(a) for a in args])


class TestFit:
    def test_writes_model_with_kappa_recorded(self, send_log, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run(["fit", send_log, "--kappa", "0.2", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["config"]["kappa"] == 0.2
        assert set(doc["type_mean_open"]) == {"1", "2", "3", "4", "5", "6"}
        assert "provenance" in doc
        assert "cells populated" in capsys.readouterr().out

    def test_bad_kappa_fails_validation_before_reading(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert run(["fit", missing, "--kappa", "1.2", "--out", tmp_path / "m.json"]) == 1

    def test_no_eligible_users_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        with open(path, "w") as fh:
            for t in range(4):
                fh.write(json.dumps({"user_id": "u1", "user_type": 1, "timestamp": t,
                                     "raw_score": 0.5, "outcome": 1}) + "\n")
        assert run(["fit", path, "--kappa", "0.2", "--out", tmp_path / "m.json"]) == 2
        assert "no users eligible" in capsys.readouterr().err

    def test_malformed_log_is_data_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert run(["fit", path, "--kappa", "0.2", "--out", tmp_path / "m.json"]) == 2

    def test_byte_that_is_not_utf8_is_data_error_naming_its_line(self, send_log, tmp_path,
                                                                 capsys):
        send_log.write_bytes(send_log.read_bytes() + b'{"user_id": "\xff"}\n')
        assert run(["fit", send_log, "--kappa", "0.2", "--out", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == "error: line 1201: byte 0xff is not valid UTF-8\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("min_samples, code", [(2.5, 1), (10.0, 0)])
    def test_config_min_samples_must_be_integral(self, send_log, tmp_path, min_samples, code):
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"kappa": 0.2, "min_samples": min_samples}))
        assert run(["fit", send_log, "--config", cfg, "--out", tmp_path / "m.json"]) == code

    def test_config_kappa_must_be_a_json_number(self, send_log, tmp_path):
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"kappa": "x"}))
        assert run(["fit", send_log, "--config", cfg, "--out", tmp_path / "m.json"]) == 1

    def test_reports_users_read_excluded_and_records(self, send_log, tmp_path, capsys):
        with open(send_log, "a") as fh:
            for t in range(6):  # three first-half sends: excluded at min_samples 10
                fh.write(json.dumps({"user_id": "short", "user_type": 2, "timestamp": t,
                                     "raw_score": 0.5, "outcome": 1}) + "\n")
        assert run(["fit", send_log, "--kappa", "0.2", "--out", tmp_path / "m.json"]) == 0
        out = capsys.readouterr().out
        assert "on 600 records from 31 users" in out
        assert "read 1206 sends; 1 users excluded with fewer than 10 first-half sends" in out

    def test_nan_calibration_breakpoint_is_data_error(self, send_log, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({"breakpoints": [0.1, math.nan, 0.5],
                                   "values": [0.1, 0.2, 0.3]}))
        out = tmp_path / "m.json"
        assert run(["fit", send_log, "--kappa", "0.2", "--calibration", cal,
                    "--out", out]) == 2
        assert "breakpoints must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_log_of_two_types_fits_and_solves(self, send_log, tmp_path):
        lines = [line for line in send_log.read_text().splitlines(keepends=True)
                 if json.loads(line)["user_type"] in (1, 2)]
        send_log.write_text("".join(lines))
        model, policy = tmp_path / "m.json", tmp_path / "p.json"
        assert run(["fit", send_log, "--kappa", "0.2", "--out", model]) == 0
        doc = json.loads(model.read_text())
        assert doc["types"] == [1, 2]
        assert set(doc["type_mean_open"]) == {"1", "2"}
        assert run(["solve", model, "--out", policy]) == 0
        assert json.loads(policy.read_text())["types"] == [1, 2]

    def test_rerun_is_byte_identical(self, send_log, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run(["fit", send_log, "--kappa", "0.3", "--out", out1])
        run(["fit", send_log, "--kappa", "0.3", "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


class TestSolve:
    @pytest.fixture
    def model_path(self, send_log, tmp_path):
        out = tmp_path / "model.json"
        run(["fit", send_log, "--kappa", "0.4", "--out", out])
        return out

    def test_writes_table_and_csv(self, model_path, tmp_path, capsys):
        out = tmp_path / "policy.json"
        assert run(["solve", model_path, "--gamma", "0.9", "--horizon", "60",
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["config"]["gamma"] == 0.9
        csv_lines = (tmp_path / "policy.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 6 * 31
        assert "thresholds in" in capsys.readouterr().out

    def test_zero_gamma_emits_all_zero_csv(self, model_path, tmp_path):
        out = tmp_path / "p0.json"
        run(["solve", model_path, "--gamma", "0", "--horizon", "60", "--out", out])
        rows = (tmp_path / "p0.csv").read_text().strip().split("\n")[1:]
        assert all(row.split(",")[2] == "0.0" for row in rows)

    @pytest.mark.parametrize("name", ["p.csv", "p.CSV"])
    def test_csv_out_is_validation_error(self, model_path, tmp_path, capsys, name):
        """The CSV sibling of a .csv --out is that file itself."""
        assert run(["solve", model_path, "--out", tmp_path / name]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {tmp_path / name} ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl", "model.json"]

    def test_invalid_gamma_is_validation_error(self, model_path, tmp_path):
        assert run(["solve", model_path, "--gamma", "1.0",
                    "--out", tmp_path / "p.json"]) == 1

    def test_mean_open_outside_unit_interval_is_data_error(self, model_path, tmp_path):
        doc = json.loads(model_path.read_text())
        doc["type_mean_open"]["3"] = -0.4
        model_path.write_text(json.dumps(doc))
        assert run(["solve", model_path, "--out", tmp_path / "p.json"]) == 2
        assert not (tmp_path / "p.json").exists()

    def test_non_finite_factor_is_data_error(self, model_path, tmp_path):
        doc = json.loads(model_path.read_text())
        doc["factors"]["2"][4] = math.nan
        model_path.write_text(json.dumps(doc))
        assert run(["solve", model_path, "--out", tmp_path / "p.json"]) == 2
        assert not (tmp_path / "p.json").exists()

    def test_count_beyond_int64_is_data_error(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["counts"]["2"][4] = 2 ** 70
        model_path.write_text(json.dumps(doc))
        assert run(["solve", model_path, "--out", tmp_path / "p.json"]) == 2
        assert capsys.readouterr().err.startswith(f"error: model {model_path}: ")

    def test_model_without_a_mean_open_rate_is_one_error_line(self, model_path, tmp_path,
                                                              capsys):
        doc = json.loads(model_path.read_text())
        del doc["type_mean_open"]["6"]
        model_path.write_text(json.dumps(doc))
        assert run(["solve", model_path, "--out", tmp_path / "p.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: model {model_path}: type_mean_open has no entry for user type(s) [6]\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl", "model.json"]

    @pytest.mark.parametrize("horizon, code", [(2.5, 1), (5.0, 0)])
    def test_config_horizon_must_be_integral(self, model_path, tmp_path, horizon, code):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"horizon": horizon}))
        assert run(["solve", model_path, "--config", cfg, "--out", tmp_path / "p.json"]) == code

    @pytest.mark.parametrize("gamma", ["0.5", HUGE])
    def test_config_gamma_must_be_a_json_number_a_float_holds(self, model_path, tmp_path,
                                                              capsys, gamma):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"gamma": gamma}))
        assert run(["solve", model_path, "--config", cfg, "--out", tmp_path / "p.json"]) == 1
        assert "gamma must be a number" in capsys.readouterr().err

    def test_missing_model_names_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.json"
        assert run(["solve", missing, "--out", tmp_path / "p.json"]) == 2
        assert str(missing) in capsys.readouterr().err


class TestCalibrate:
    def test_writes_monotone_map(self, send_log, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert run(["calibrate", send_log, "--now", str(40 * 3600),
                    "--window-hours", "48", "--out", out]) == 0
        doc = json.loads(out.read_text())
        values = doc["values"]
        assert values == sorted(values)
        out = capsys.readouterr().out
        assert "breakpoints" in out
        # the window (-8h, 40h] holds sends at hours 0..39 of all 30 users
        assert f"1200 of 1200 sends in the window, {len(values)} distinct scores" in out
        assert f"{len(values)} breakpoints pooled into {len(set(values))} distinct values" in out

    @pytest.mark.parametrize("key, value, code", [
        ("now", 40 * 3600 + 0.5, 1), ("window_hours", 47.5, 1), ("now", 40 * 3600.0, 0)])
    def test_config_now_and_window_must_be_integral(self, send_log, tmp_path, key, value,
                                                    code):
        cfg = tmp_path / "cal.json"
        cfg.write_text(json.dumps({"now": 40 * 3600, "window_hours": 48, key: value}))
        out = tmp_path / "out.json"
        assert run(["calibrate", send_log, "--config", cfg, "--out", out]) == code
        if code == 0:
            assert json.loads(out.read_text())["provenance"]["config"]["now"] == 40 * 3600

    def test_sparse_window_is_data_error(self, send_log, tmp_path):
        # window ending long before the data begins catches nothing
        assert run(["calibrate", send_log, "--now", "-999999",
                    "--out", tmp_path / "cal.json"]) == 2

    def test_fewer_than_two_window_sends_is_one_error_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps({"user_id": "u1", "user_type": 1, "timestamp": t,
                                           "raw_score": 0.5, "outcome": 1}) + "\n"
                               for t in (-100000, 100)))
        before = sorted(os.listdir(tmp_path))
        assert run(["calibrate", log, "--now", "200", "--window-hours", "24",
                    "--out", tmp_path / "cal.json"]) == 2
        assert capsys.readouterr().err == \
            "error: fewer than 2 events in the 24h window ending at 200\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("value", ["9" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["int of 5000 digits", "nested 100k deep"])
    def test_json_past_the_decoder_limits_is_one_error_line(self, tmp_path, capsys, value):
        line = json.dumps({"user_id": "u1", "user_type": 1, "timestamp": 0,
                           "raw_score": 0.5, "outcome": 1})
        log = tmp_path / "log.jsonl"
        log.write_text(line + "\n" + line[:-1] + ', "x": ' + value + "}\n")
        assert run(["calibrate", log, "--now", "0", "--out", tmp_path / "cal.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: invalid JSON (") and err.count("\n") == 1

    def test_zero_window_is_validation_error(self, send_log, tmp_path):
        assert run(["calibrate", send_log, "--now", "0", "--window-hours", "0",
                    "--out", tmp_path / "cal.json"]) == 1

    def test_log_level_variable_is_not_read(self, send_log, tmp_path, monkeypatch):
        # in a fresh interpreter: pytest gives the root logger a handler,
        # which would turn any logging.basicConfig call into a no-op
        monkeypatch.setenv("NOTIF_LTV_LOG_LEVEL", "bogus")
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(notif_ltv.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from notif_ltv.cli import main; sys.exit(main())",
             "calibrate", str(send_log), "--now", str(40 * 3600),
             "--out", str(tmp_path / "c.json")], capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr


class TestSimulate:
    @pytest.fixture
    def sim_config_path(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "num_users": 60, "days": 3, "passes_per_day": 2, "master_seed": 9,
            "type_shares": {"1": 0.5, "2": 0.5},
            "baseline_beta": {"1": [4, 6], "2": [3, 7]},
            "score_noise": {"1": 0.5, "2": 0.5},
            "streak_bounds": [-4, 4],
            "factor_ramps": {"1": [0.7, 1.2], "2": [0.8, 1.1]},
            "kappa_true": 0.4,
            "send_limits": {"limits": {"1": 2, "2": 2}, "adjustment": 0},
        }))
        return path

    @pytest.fixture
    def treatments_path(self, tmp_path):
        path = tmp_path / "treatments.json"
        path.write_text(json.dumps([
            {"name": "heuristic", "policy": "heuristic", "baseline": True,
             "thresholds": {"1": 0.3, "2": 0.25}},
            {"name": "no_filter", "policy": "no_filter"},
        ]))
        return path

    def test_writes_report_bundle(self, sim_config_path, treatments_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", treatments_path, "--out-dir", out_dir,
                    "--emit-log"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["baseline"] == "heuristic"
        names = [t["name"] for t in report["treatments"]]
        assert names == ["heuristic", "no_filter"]
        assert (out_dir / "report_table.txt").exists()
        assert (out_dir / "report_per_type.csv").exists()
        assert (out_dir / "events_no_filter.jsonl").exists()
        assert "Treatment" in capsys.readouterr().out

    def test_huge_score_noise_runs(self, sim_config_path, treatments_path, tmp_path):
        """A score noise of 1000 drives logits past the range of math.exp;
        such a score is 0.0 and the command succeeds."""
        doc = json.loads(sim_config_path.read_text())
        doc["score_noise"] = {"1": 1000.0, "2": 1000.0}
        sim_config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", treatments_path, "--out-dir", out_dir,
                    "--emit-log"]) == 0
        scores = {json.loads(line)["raw_score"]
                  for line in (out_dir / "events_no_filter.jsonl").read_text().splitlines()}
        assert 0.0 in scores

    def test_baseline_deltas_are_zero(self, sim_config_path, treatments_path, tmp_path):
        out_dir = tmp_path / "out"
        run(["simulate", "--sim-config", sim_config_path,
             "--treatments", treatments_path, "--out-dir", out_dir])
        report = json.loads((out_dir / "report.json").read_text())
        base_row = report["treatments"][0]
        assert all(v == 0.0 for v in base_row["deltas"].values())

    def test_rerun_and_thread_count_are_byte_identical(self, sim_config_path,
                                                       treatments_path, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(["simulate", "--sim-config", sim_config_path, "--treatments",
             treatments_path, "--out-dir", d1, "--threads", "1"])
        run(["simulate", "--sim-config", sim_config_path, "--treatments",
             treatments_path, "--out-dir", d2, "--threads", "3"])
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_seed_override_changes_report(self, sim_config_path, treatments_path, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(["simulate", "--sim-config", sim_config_path, "--treatments",
             treatments_path, "--out-dir", d1])
        run(["simulate", "--sim-config", sim_config_path, "--treatments",
             treatments_path, "--out-dir", d2, "--seed", "12345"])
        assert (d1 / "report.json").read_bytes() != (d2 / "report.json").read_bytes()

    @pytest.mark.parametrize("in_config", [False, True])
    def test_negative_seed_is_validation_error(self, sim_config_path, treatments_path,
                                               tmp_path, capsys, in_config):
        if in_config:
            doc = json.loads(sim_config_path.read_text())
            doc["master_seed"] = -1
            sim_config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", out_dir]
                   + ([] if in_config else ["--seed", "-1"])) == 1
        assert capsys.readouterr().err == (
            "error: simulation config: master_seed must be >= 0, got -1\n")
        assert not out_dir.exists()

    def test_horizon_past_one_block_is_validation_error(self, sim_config_path, treatments_path,
                                                        tmp_path, capsys, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("the config passed validation")
        monkeypatch.setattr(notif_ltv.sim, "_simulate", never_called)
        doc = json.loads(sim_config_path.read_text())
        doc["days"] = 1e12
        sim_config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", out_dir, "--emit-log"]) == 1
        assert capsys.readouterr().err == (
            "error: simulation config: passes_per_day must be <= 86400 and "
            "max(days, calibration_days) * passes_per_day <= 87381\n")
        assert not out_dir.exists()

    def test_share_for_a_type_without_true_factors_is_validation_error(
            self, sim_config_path, treatments_path, tmp_path, capsys):
        doc = json.loads(sim_config_path.read_text())
        doc["type_shares"] = {"1": 0.5, "2": 0.0, "3": 0.5}
        sim_config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: simulation config: type_shares gives user type 3 a share of 0.5, "
            "but true_factors has no such type\n")
        assert not out_dir.exists()

    def test_duplicate_treatment_names_rejected(self, sim_config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"name": "x", "policy": "no_filter", "baseline": True},
            {"name": "x", "policy": "no_filter"}]))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", bad, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: treatments: duplicate treatment names in ['x', 'x']\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [(False, False), (True, True)], ids=["none", "two"])
    def test_baseline_count_other_than_one_is_validation_error(self, sim_config_path,
                                                               tmp_path, capsys, flags):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"name": "a", "policy": "no_filter", "baseline": flags[0]},
            {"name": "b", "policy": "no_filter", "baseline": flags[1]}]))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", bad, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: treatments: exactly one treatment must be flagged baseline, "
            f"got {sum(flags)}\n")
        assert not out_dir.exists()

    def test_rl_table_outside_unit_interval_is_data_error(self, sim_config_path, tmp_path):
        table = PolicyTable(bounds=(-4, 4), types=(1, 2), thresholds=np.full((2, 9), 0.3))
        doc = table.to_dict()
        doc["thresholds"]["1"][:3] = [math.nan, -0.5, 7.0]
        (tmp_path / "policy.json").write_text(json.dumps(doc))
        rl = tmp_path / "rl.json"
        rl.write_text(json.dumps([
            {"name": "heuristic", "policy": "heuristic", "baseline": True,
             "thresholds": {"1": 0.3, "2": 0.25}},
            {"name": "rl", "policy": "rl", "table_path": "policy.json"}]))
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", rl, "--out-dir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("token", ["Infinity", "1e999", "-Infinity", "NaN"])
    def test_rl_threshold_other_than_a_finite_number_or_null_is_data_error(
            self, sim_config_path, tmp_path, capsys, token):
        """null is the one spelling of never-send."""
        table = PolicyTable(bounds=(-4, 4), types=(1, 2), thresholds=np.full((2, 9), 0.3))
        doc = table.to_dict()
        doc["thresholds"]["1"][2] = 0.125
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(doc).replace("0.125", token))
        rl = tmp_path / "rl.json"
        rl.write_text(json.dumps([
            {"name": "no_filter", "policy": "no_filter", "baseline": True},
            {"name": "rl", "policy": "rl", "table_path": "policy.json"}]))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", rl, "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == (
            f"error: policy table {policy_path}: thresholds[1][2] must be a finite number "
            f"or null (never send), got {float(token)!r}\n")
        assert not out_dir.exists()

    def test_heuristic_missing_a_drawn_type_is_validation_error(self, sim_config_path,
                                                                tmp_path, capsys):
        treatments = tmp_path / "heuristic.json"
        treatments.write_text(json.dumps([
            {"name": "heuristic", "policy": "heuristic", "baseline": True,
             "thresholds": {"1": 0.3}}]))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", treatments, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: treatments[0]: thresholds have no entry for user type(s) [2]\n")
        assert not out_dir.exists()
        # a type with no share is never drawn and needs no threshold
        doc = json.loads(sim_config_path.read_text())
        doc["type_shares"] = {"1": 1.0, "2": 0.0}
        sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", treatments, "--out-dir", out_dir]) == 0

    def test_rl_table_missing_a_drawn_type_is_data_error(self, sim_config_path, tmp_path,
                                                         capsys):
        table = PolicyTable(bounds=(-4, 4), types=(1,), thresholds=np.full((1, 9), 0.3))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(table.to_dict()))
        rl = tmp_path / "rl.json"
        rl.write_text(json.dumps([
            {"name": "no_filter", "policy": "no_filter", "baseline": True},
            {"name": "rl", "policy": "rl", "table_path": "policy.json"}]))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", rl, "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == (
            f"error: policy table {policy_path}: thresholds have no entry for "
            "user type(s) [2]\n")
        assert not out_dir.exists()

    def test_zero_threads_fails_validation_before_reading(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run(["simulate", "--sim-config", missing, "--treatments", missing,
                    "--out-dir", tmp_path / "o", "--threads", "0"]) == 1

    def test_non_finite_true_factor_is_validation_error(self, sim_config_path,
                                                       treatments_path, tmp_path):
        doc = json.loads(sim_config_path.read_text())
        table = ramp_factor_table((-4, 4), {1: (0.7, 1.2), 2: (0.8, 1.1)}).to_dict()
        table["factors"]["2"][6] = math.nan
        del doc["factor_ramps"]
        doc["true_factors"] = table
        sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("key, value", [("days", 2.5), ("send_limits",
                                            {"limits": {"1": 2, "2": 1.5}})])
    def test_fractional_integer_field_is_validation_error(self, sim_config_path,
                                                          treatments_path, tmp_path,
                                                          key, value):
        doc = json.loads(sim_config_path.read_text())
        doc[key] = value
        sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("num_users", True, "num_users must be an integer, got True"),
        ("kappa_true", HUGE, "kappa_true must be a number in float range"),
        ("baseline_beta", {"1": [4, 6], "2": [2]},
         "baseline_beta[2] must be a list of 2 numbers, got [2]"),
    ])
    def test_config_value_of_wrong_json_type_is_validation_error(
            self, sim_config_path, treatments_path, tmp_path, capsys, key, value, message):
        doc = json.loads(sim_config_path.read_text())
        doc[key] = value
        sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", tmp_path / "o"]) == 1
        assert message in capsys.readouterr().err

    def test_treatment_baseline_must_be_a_json_bool(self, sim_config_path, tmp_path, capsys):
        treatments = tmp_path / "t.json"
        treatments.write_text(json.dumps([
            {"name": "base", "policy": "no_filter", "baseline": True},
            {"name": "h", "policy": "no_filter", "baseline": "false"}]))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments, "--out-dir", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.strip() == \
            "error: treatments[1]: baseline must be true or false, got 'false'"

    @pytest.mark.parametrize("key, value, message", [
        ("baseline_beta", {"1": [4, 6], "2": [0, 7]}, "baseline_beta for user type 2"),
        ("baseline_beta", {"1": [-1, 6], "2": [3, 7]}, "baseline_beta for user type 1"),
        ("score_noise", {"1": 0.5, "2": math.nan}, "score_noise for user type 2"),
    ])
    def test_bad_ground_truth_is_validation_error(self, sim_config_path, treatments_path,
                                                  tmp_path, capsys, key, value, message):
        doc = json.loads(sim_config_path.read_text())
        doc[key] = value
        sim_config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments_path, "--out-dir", out_dir]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fractional_limit_adjustment_is_validation_error(self, sim_config_path, tmp_path):
        treatments = tmp_path / "t.json"
        treatments.write_text(json.dumps([
            {"name": "base", "policy": "no_filter", "baseline": True},
            {"name": "more", "policy": "no_filter", "limit_adjustment": 1.5}]))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments",
                    treatments, "--out-dir", tmp_path / "o"]) == 1

    def test_treatments_object_is_validation_error(self, sim_config_path, treatments_path,
                                                   tmp_path, capsys):
        """The treatments file is a JSON list; an object holding the list is
        rejected, not unwrapped."""
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"treatments": json.loads(treatments_path.read_text())}))
        before = sorted(os.listdir(tmp_path))
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", wrapped, "--out-dir", tmp_path / "o"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: treatments: "), lines
        assert "treatments must be a list of objects" in lines[0]
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("emit_log", [[], ["--emit-log"]], ids=["no-log", "emit-log"])
    @pytest.mark.parametrize("name", ["nf/x", "nf\0x"], ids=["slash", "nul"])
    def test_name_that_cannot_be_a_file_name_is_validation_error(
            self, sim_config_path, tmp_path, capsys, name, emit_log):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"name": "base", "policy": "no_filter", "baseline": True},
                                   {"name": name, "policy": "no_filter"}]))
        before = sorted(os.listdir(tmp_path))
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments", bad,
                    "--out-dir", tmp_path / "o"] + emit_log) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: treatments[1]: "), lines
        assert sorted(os.listdir(tmp_path)) == before

    def test_per_type_csv_quotes_a_name_holding_a_comma(self, sim_config_path, tmp_path):
        named = tmp_path / "named.json"
        named.write_text(json.dumps([
            {"name": "heur, v2", "policy": "heuristic", "baseline": True,
             "thresholds": {"1": 0.3, "2": 0.25}},
            {"name": "no_filter", "policy": "no_filter"}]))
        out_dir = tmp_path / "out"
        assert run(["simulate", "--sim-config", sim_config_path, "--treatments", named,
                    "--out-dir", out_dir]) == 0
        with open(out_dir / "report_per_type.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5 and all(len(row) == 6 for row in rows), rows
        assert [row[0] for row in rows[1:3]] == ["heur, v2", "heur, v2"]

    def test_unknown_policy_rejected(self, sim_config_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"name": "x", "policy": "percentile",
                                    "baseline": True}]))
        assert run(["simulate", "--sim-config", sim_config_path,
                    "--treatments", bad, "--out-dir", tmp_path / "o"]) == 1


def test_full_pipeline_round_trip(tmp_path):
    """simulate (emit log) -> calibrate -> fit -> solve -> simulate with rl.

    Each artifact holds exactly what a later stage reads, plus `provenance`,
    whose `config` records the parameters the stage ran with."""
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "num_users": 120, "days": 8, "passes_per_day": 2, "master_seed": 31,
        "type_shares": {str(c): 1 / 6 for c in range(1, 7)},
        "baseline_beta": {str(c): [4, 6] for c in range(1, 7)},
        "score_noise": {str(c): 0.5 for c in range(1, 7)},
        "streak_bounds": [-4, 4],
        "factor_ramps": {str(c): [0.7, 1.2] for c in range(1, 7)},
        "kappa_true": 0.4,
        "send_limits": {"limits": {str(c): 2 for c in range(1, 7)}, "adjustment": 0},
    }))
    warm_treatments = tmp_path / "warm.json"
    warm_treatments.write_text(json.dumps([
        {"name": "no_filter", "policy": "no_filter", "baseline": True}]))
    warm_dir = tmp_path / "warm"
    assert run(["simulate", "--sim-config", sim_cfg, "--treatments", warm_treatments,
                "--out-dir", warm_dir, "--emit-log"]) == 0
    log = warm_dir / "events_no_filter.jsonl"

    def artifact(path, keys, **config):
        text = path.read_text()
        doc = json.loads(text)
        # every command writes the stdlib's indented, key-sorted text
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert set(doc) == set(keys) | {"provenance"}
        assert {key: doc["provenance"]["config"][key] for key in config} == config
        return doc

    cal = tmp_path / "cal.json"
    assert run(["calibrate", log, "--now", str(8 * 86400),
                "--window-hours", str(8 * 24), "--out", cal]) == 0
    artifact(cal, {"breakpoints", "values"}, now=8 * 86400, window_hours=8 * 24)

    model = tmp_path / "model.json"
    assert run(["fit", log, "--kappa", "0.4", "--min-samples", "4",
                "--calibration", cal, "--out", model]) == 0
    artifact(model, {"version", "streak_bounds", "types", "factors", "counts",
                     "type_mean_open"}, kappa=0.4)

    table = tmp_path / "policy.json"
    assert run(["solve", model, "--gamma", "0.9", "--horizon", "80",
                "--out", table]) == 0
    artifact(table, {"version", "streak_bounds", "types", "thresholds"}, gamma=0.9, horizon=80)

    treatments = tmp_path / "treatments.json"
    treatments.write_text(json.dumps([
        {"name": "heuristic", "policy": "heuristic", "baseline": True,
         "thresholds": {str(c): 0.25 for c in range(1, 7)}},
        {"name": "rl", "policy": "rl", "table_path": "policy.json"},
    ]))
    out_dir = tmp_path / "exp"
    assert run(["simulate", "--sim-config", sim_cfg, "--treatments", treatments,
                "--out-dir", out_dir]) == 0
    report = artifact(out_dir / "report.json",
                      {"version", "baseline", "treatments", "per_type", "config"}, seed=31)
    assert {t["name"] for t in report["treatments"]} == {"heuristic", "rl"}


# One valid document of every kind the commands read, each with the command
# that reads it and the exit code a malformed copy must give: 1 for configs
# and treatments, 2 for another stage's artifact.
SIM_CONFIG = {
    "num_users": 20, "days": 2, "passes_per_day": 2, "master_seed": 9,
    "gamma": 0.9, "churn_rate": 0.0, "calibration_days": 1,
    "type_shares": {"1": 0.5, "2": 0.5},
    "baseline_beta": {"1": [4, 6], "2": [3, 7]},
    "score_noise": {"1": 0.5, "2": 0.5},
    "streak_bounds": [-2, 2],
    "factor_ramps": {"1": [0.7, 1.2], "2": [0.8, 1.1]},
    "kappa_true": 0.4,
    "send_limits": {"limits": {"1": 2, "2": 2}, "adjustment": 0},
}
SIM_CONFIG_TABLE = {key: value for key, value in SIM_CONFIG.items()
                    if key not in ("streak_bounds", "factor_ramps")}
SIM_CONFIG_TABLE["true_factors"] = ramp_factor_table(
    (-2, 2), {1: (0.7, 1.2), 2: (0.8, 1.1)}).to_dict()
TREATMENTS = [
    {"name": "heuristic", "policy": "heuristic", "baseline": True,
     "thresholds": {"1": 0.3, "2": 0.25}},
    {"name": "no_filter", "policy": "no_filter", "limit_adjustment": 1},
    {"name": "rl", "policy": "rl", "table_path": "policy.json"},
]
POLICY = PolicyTable(bounds=(-2, 2), types=(1, 2),
                     thresholds=[[0.1, 0.2, 0.3, 0.4, NEVER_SEND]] * 2).to_dict()
MODEL = BehaviorModel(factors=ramp_factor_table((-2, 2), {1: (0.7, 1.2), 2: (0.8, 1.1)}),
                      type_mean_open={1: 0.3, 2: 0.4}).to_dict()
CALIBRATION = CalibrationMap(breakpoints=(0.1, 0.5), values=(0.2, 0.6)).to_dict()
VALID = {"sim.json": SIM_CONFIG, "treatments.json": TREATMENTS, "policy.json": POLICY,
         "fit.json": {"kappa": 0.2, "min_samples": 10}, "cal.json": CALIBRATION,
         "solve.json": {"gamma": 0.9, "horizon": 60}, "model.json": MODEL,
         "calibrate.json": {"now": 40 * 3600, "window_hours": 48}}
SIMULATE = ["simulate", "--sim-config", "sim.json", "--treatments", "treatments.json",
            "--out-dir", "out"]
READERS = {  # label -> (file, its valid document, command reading it, exit code)
    "sim config": ("sim.json", SIM_CONFIG, SIMULATE, 1),
    "sim config with true_factors": ("sim.json", SIM_CONFIG_TABLE, SIMULATE, 1),
    "treatments": ("treatments.json", TREATMENTS, SIMULATE, 1),
    "policy table": ("policy.json", POLICY, SIMULATE, 2),
    "fit config": ("fit.json", VALID["fit.json"],
                   ["fit", "log.jsonl", "--config", "fit.json", "--out", "m.json"], 1),
    "calibration": ("cal.json", CALIBRATION, ["fit", "log.jsonl", "--kappa", "0.2",
                                              "--calibration", "cal.json", "--out", "m.json"], 2),
    "solve config": ("solve.json", VALID["solve.json"],
                     ["solve", "model.json", "--config", "solve.json", "--out", "p.json"], 1),
    "model": ("model.json", MODEL, ["solve", "model.json", "--out", "p.json"], 2),
    "calibrate config": ("calibrate.json", VALID["calibrate.json"],
                         ["calibrate", "log.jsonl", "--config", "calibrate.json",
                          "--out", "c.json"], 1),
}


def _positions(node, path=()):
    """Key paths to every value below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        if key != "version":  # written for readers of the file; no loader reads it
            yield path + (key,), child
            yield from _positions(child, path + (key,))


def _invalid_replacements(value):
    """Values of the wrong JSON type or shape for a field holding `value`."""
    if isinstance(value, bool):
        return [None, "true", 1, [value], {}]
    if isinstance(value, (int, float)):
        return [None, True, str(value), [value], {}, HUGE]
    if isinstance(value, str):
        return [None, False, 7, [value], {}]
    if isinstance(value, list):
        return [None, True, "x", {}, value[:-1], value + [0], HUGE]
    return [None, True, "x", [], HUGE]


# (reader label, key path, replacement) for every field of every document
MUTATIONS = [(label, path, bad)
             for label, (_, doc, _, _) in READERS.items()
             for path, value in _positions(doc)
             for bad in _invalid_replacements(value)
             # a null threshold is a valid never-send cell
             if not (label == "policy table" and path[0] == "thresholds" and bad is None)]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _write_documents(tmp, docs, log):
    for file_name, doc in docs.items():
        with open(os.path.join(tmp, file_name), "w") as fh:
            json.dump(doc, fh)
    os.symlink(log, os.path.join(tmp, "log.jsonl"))


def _run_in(tmp, command):
    """Exit code and stderr of `command`, its file arguments taken in tmp."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([os.path.join(tmp, a) if a.endswith((".json", ".jsonl")) or a == "out"
                     else a for a in command])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def mutation_log(tmp_path_factory):
    rng = np.random.default_rng(42)
    path = tmp_path_factory.mktemp("mutation") / "log.jsonl"
    path.write_text("".join(
        json.dumps({"user_id": f"u{u:03d}", "user_type": u % 6 + 1, "timestamp": t * 3600,
                    "raw_score": float(rng.uniform(0.05, 0.95)),
                    "outcome": int(rng.random() < 0.4)}) + "\n"
        for u in range(30) for t in range(40)))
    return path


@pytest.mark.parametrize("label", READERS)
def test_unmutated_documents_run(mutation_log, label):
    file_name, doc, command, _ = READERS[label]
    with tempfile.TemporaryDirectory() as tmp:
        _write_documents(tmp, {**VALID, file_name: doc}, mutation_log)
        assert _run_in(tmp, command)[0] == 0


@settings(max_examples=300, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS))
def test_one_malformed_field_is_one_error_line(mutation_log, mutation):
    """Any one field of any document given a value of the wrong JSON type or
    shape ends in one `error:` line and its exit code, with nothing written."""
    label, path, bad = mutation
    file_name, doc, command, code = READERS[label]
    with tempfile.TemporaryDirectory() as tmp:
        _write_documents(tmp, {**VALID, file_name: _replaced(doc, path, bad)}, mutation_log)
        before = sorted(os.listdir(tmp))
        got, err = _run_in(tmp, command)
        assert (got, sorted(os.listdir(tmp))) == (code, before)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


# bodies that json cannot decode: nesting past the recursion limit, an
# integer past the digit limit, and a byte that is not UTF-8
UNDECODABLE = {"nested 100k deep": b"[" * 100_000, "int of 5000 digits": b"9" * 5000,
               "byte 0xff": b"\xff"}


@pytest.mark.parametrize("body", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize("label", READERS)
def test_undecodable_json_is_one_error_line_naming_the_file(mutation_log, label, body):
    file_name, _, command, _ = READERS[label]
    with tempfile.TemporaryDirectory() as tmp:
        _write_documents(tmp, VALID, mutation_log)
        with open(os.path.join(tmp, file_name), "wb") as fh:
            fh.write(body)
        before = sorted(os.listdir(tmp))
        got, err = _run_in(tmp, command)
        assert (got, sorted(os.listdir(tmp))) == (2, before)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid JSON in "), err
    assert os.path.join(tmp, file_name) in lines[0]


# Each artifact as earlier versions wrote it, with keys that no reader reads
# any more, next to the document the current version writes for it.
LEGACY = {
    "policy": (PolicyTable, {**POLICY, "config": {
        "gamma": 0.9, "horizon": 60, "kappa": 0.4, "streak_bounds": [-2, 2],
        "threshold_tolerance": 1e-6}}, POLICY),
    "model": (BehaviorModel, {**MODEL, "kappa": 0.4,
                              "type_population_share": {"1": 0.5, "2": 0.5}}, MODEL),
    "calibration": (CalibrationMap, {**CALIBRATION, "fitted_at": 3600.0, "window_hours": 24},
                    CALIBRATION),
}


@pytest.mark.parametrize("kind", LEGACY)
def test_legacy_artifact_keys_still_load(kind):
    cls, old, new = LEGACY[kind]
    assert cls.from_dict(old).to_dict() == cls.from_dict(new).to_dict() == new


def test_legacy_policy_file_simulates_as_the_current_one(tmp_path, monkeypatch):
    reports = []
    for name, policy in (("old", LEGACY["policy"][1]), ("new", POLICY)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        for file_name, doc in (("sim.json", SIM_CONFIG), ("treatments.json", TREATMENTS),
                               ("policy.json", policy)):
            with open(file_name, "w") as fh:
                json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(SIMULATE) == 0
        with open(os.path.join("out", "report.json"), "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]
