"""The README's library example runs as written."""

import contextlib
import io
import os
import re

from notif_ltv import SendLimitConfig, SimConfig, ramp_factor_table, warmup_events

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
TYPES = (1, 2, 3, 4, 5, 6)


def library_example() -> str:
    """The Python block of the README's "Library use" section, behind as many
    blank lines as precede it, so a traceback names the README's own line."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.compile(r"```python\n(.*?)```", re.S).search(text, text.index("## Library use"))
    return "\n" * text.count("\n", 0, block.start(1)) + block.group(1)


def test_library_example_runs_on_a_log_of_every_type(tmp_path, monkeypatch):
    # ten days of no-filter sends: about 15 first-half sends per user, above
    # the example's min_samples of 10
    config = SimConfig(
        num_users=60, days=1, passes_per_day=3,
        type_shares={c: 1 / 6 for c in TYPES},
        baseline_beta={c: (4.0, 6.0) for c in TYPES},
        score_noise={c: 0.5 for c in TYPES},
        true_factors=ramp_factor_table((-4, 4), {c: (0.7, 1.2) for c in TYPES}),
        kappa_true=0.4, send_limits=SendLimitConfig(limits={c: 3 for c in TYPES}),
        master_seed=7, calibration_days=10)
    (tmp_path / "events.jsonl").write_text(warmup_events(config).to_jsonl())
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), README, "exec"), {})
    printed = out.getvalue().strip()
    assert printed.startswith("[") and printed.endswith("]"), printed
    thresholds = [float(v) for v in printed[1:-1].split()]
    assert len(thresholds) == 3 and all(0.0 <= v <= 1.0 for v in thresholds), printed
