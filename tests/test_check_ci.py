"""The byte comparisons of tests/check_ci.py report a file one byte off, and only that file."""

import json

import pytest
from check_ci import indent_differences, policy_csv_differences
from conftest import make_model

from notif_ltv.cli import main


@pytest.mark.parametrize("compare, changed", [(indent_differences, "policy.json"),
                                              (policy_csv_differences, "policy.csv")])
def test_a_fault_is_reported_only_for_the_file_one_byte_off(tmp_path, capsys, compare, changed):
    """`solve` writes the policy JSON and CSV; the comparison passes on them
    as written and names the file whose final newline became a space, which
    leaves the JSON a valid document."""
    model = make_model({(1, s): 1.0 + 0.1 * s for s in range(-2, 3)}, 0.3, (-2, 2))
    (tmp_path / "model.json").write_text(json.dumps(model.to_dict()))
    policy = str(tmp_path / "policy.json")
    assert main(["solve", str(tmp_path / "model.json"), "--gamma", "0.9", "--horizon", "20",
                 "--out", policy]) == 0
    assert compare(policy) == []
    path = tmp_path / changed
    path.write_bytes(path.read_bytes()[:-1] + b" ")
    found = compare(policy)
    assert len(found) == 1 and found[0].startswith(f"{path} differs from "), found
