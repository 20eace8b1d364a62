"""Compare `state_values` and `solve_policy` with `state_values_reference` on a
model file.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/check_state_values.py MODEL.json

For each (gamma, horizon) pair that the benchmark's `solve_sweep` workload
solves, it builds the config `notif-ltv solve` builds and prints one line:
`same` when the values with horizon - 1 steps left and the policy table's
thresholds have the bits of the reference recursion, and otherwise which of
the two differ. Exits 1 when any pair differs. The name keeps pytest from
collecting it.
"""

from __future__ import annotations

import json
import sys
from unittest import mock

from notif_ltv import BehaviorModel, SolverConfig, solve_policy, solver, state_values
from oracles import state_values_reference

GAMMAS = (0.8, 0.9, 0.95, 0.99)
HORIZONS = (250, 1000)


def differences(model: BehaviorModel, config: SolverConfig) -> list[str]:
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


def main(path) -> int:
    with open(path) as fh:
        model = BehaviorModel.from_dict(json.load(fh))
    failed = False
    for gamma in GAMMAS:
        for horizon in HORIZONS:
            config = SolverConfig(gamma=gamma, horizon=horizon,
                                  streak_bounds=model.factors.bounds)
            found = differences(model, config)
            failed |= bool(found)
            print(f"gamma {gamma} horizon {horizon}: "
                  + ("differs in " + ", ".join(found) if found else "same"))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
