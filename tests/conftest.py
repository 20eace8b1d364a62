"""Shared fixtures and the acceptance-suite terminal summary."""

from __future__ import annotations

import numpy as np
import pytest

from notif_ltv import BehaviorModel, FactorTable


def make_model(factor_map, ybar, bounds, types=(1,)):
    """Build a BehaviorModel from plain dicts for solver tests.

    factor_map: {(type, streak): factor}; missing cells default to 1.
    ybar: {type: mean open} or a single float applied to every type.
    """
    lo, hi = bounds
    n = hi - lo + 1
    factors = np.ones((len(types), n))
    counts = np.zeros((len(types), n), dtype=np.int64)
    for (c, s), f in factor_map.items():
        factors[types.index(c), s - lo] = f
    table = FactorTable(bounds=bounds, types=types, factors=factors, counts=counts)
    if isinstance(ybar, dict):
        mean_open = dict(ybar)
    else:
        mean_open = {c: float(ybar) for c in types}
    return BehaviorModel(factors=table, type_mean_open=mean_open)


@pytest.fixture
def small_model():
    """The hand-checkable instance: one type, ybar 0.5, f(+1)=1.2, f(-1)=0.8."""
    return make_model({(1, 1): 1.2, (1, -1): 0.8}, ybar=0.5, bounds=(-1, 1))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in report.nodeid and report.when == "call":
                name = report.nodeid.split("::")[-1]
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, status))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")
