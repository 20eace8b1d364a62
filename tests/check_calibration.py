"""Compare `fit_isotonic` with element-wise `pav` over every tie group on the
benchmark's calibration inputs.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/check_calibration.py INPUTS_DIR [INPUTS_DIR ...]

Each INPUTS_DIR is a directory of benchmark inputs as `perfbench/run.py`
generates them: one holding `events.jsonl` and `inputs.json` gives the sends
of the 24 h window ending at the `now` that `inputs.json` records, as
`calibrate` fits them in the benchmark; one holding `sim.json` gives the
sends of that config's calibration warm-up. `fit_isotonic` fits one `pav`
member per run of tie groups with equal means; the reference pools the
sorted scores' tie groups the same way and calls `pav` on every group. For
each directory it prints one line with the tie-group and run counts and
`same` when the breakpoints and values have the reference's float bits, and
otherwise what differs. Exits 1 when any directory differs. The name keeps
pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from notif_ltv import SimConfig, fit_isotonic, pav, read_log, warmup_events
from notif_ltv.calibrate import window_mask

WINDOW_HOURS = 24


def window(inputs_dir) -> tuple[np.ndarray, np.ndarray]:
    """The raw scores and outcomes that the benchmark fits from inputs_dir."""
    sim_path = os.path.join(inputs_dir, "sim.json")
    if os.path.exists(sim_path):
        with open(sim_path) as fh:
            log = warmup_events(SimConfig.from_dict(json.load(fh)))
        return log.raw_score, log.outcome
    with open(os.path.join(inputs_dir, "inputs.json")) as fh:
        now = json.load(fh)["now"]
    log = read_log(os.path.join(inputs_dir, "events.jsonl"))
    recent = window_mask(log.timestamp, now, WINDOW_HOURS)
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


def main(dirs) -> int:
    failed = False
    for inputs_dir in dirs:
        scores, outcomes = window(inputs_dir)
        cmap = fit_isotonic(scores, outcomes)
        breakpoints, values, pooled = reference(scores, outcomes)
        found = [name for name, got, want in
                 (("breakpoints", cmap.breakpoints, breakpoints), ("values", cmap.values, values))
                 if np.array(got, dtype=float).tobytes() != want.tobytes()]
        bits = pooled.view(np.int64)
        runs = 1 + np.count_nonzero(bits[1:] != bits[:-1])
        failed |= bool(found)
        print(f"{inputs_dir}: {len(pooled)} tie groups in {runs} runs: "
              + ("differs in " + ", ".join(found) if found else "same"))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
