"""Compare every arm of a joint simulation with that arm run alone.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/check_arms.py SIM.json TREATMENTS.json

It runs the experiment that `notif-ltv simulate --emit-log` runs on the two
files, then runs each treatment alone, as the baseline of a one-arm
experiment with the same calibration. It prints one line per arm: `same`
when the arm's results, largest day's sends and kept sends equal those of
its lone run, and otherwise which of them differ. Exits 1 when any arm
differs. The name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from notif_ltv import SimConfig, fit_sim_calibration, run_experiment
from notif_ltv.cli import _build_treatment

LOG_COLUMNS = ("user", "user_type", "timestamp", "raw_score", "outcome")


def differences(joint, alone, name: str) -> list[str]:
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


def main(sim_path, treatments_path) -> int:
    with open(sim_path) as fh:
        config = SimConfig.from_dict(json.load(fh))
    with open(treatments_path) as fh:
        entries = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(treatments_path))
    drawn = [c for c, share in config.type_shares.items() if share > 0]
    treatments = [_build_treatment(entry, base_dir, drawn)[0] for entry in entries]
    calibration = fit_sim_calibration(config)
    joint = run_experiment(config, treatments, calibration, keep_events=True)
    failed = False
    for treatment in treatments:
        alone = run_experiment(config, [dataclasses.replace(treatment, baseline=True)],
                               calibration, keep_events=True)
        found = differences(joint, alone, treatment.name)
        failed |= bool(found)
        print(f"{treatment.name}: " + ("differs in " + ", ".join(found) if found else "same"))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
