"""Compare `read_log` with the per-line `read_log_oracle` on whole log files.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/check_read_log.py LOG.jsonl [LOG.jsonl ...]

For each file it prints one line: `same` when the two readers give equal
logs (the users and every column's dtype and bits) or equal errors, and
otherwise what differs. Exits 1 when any file differs. The name keeps
pytest from collecting it.
"""

from __future__ import annotations

import sys

from notif_ltv import LogParseError, read_log
from oracles import read_log_oracle

COLUMNS = ("user", "user_type", "timestamp", "raw_score", "outcome")


def differences(path) -> list[str]:
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
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            found.append(f"{name} ({a.dtype}, {len(a)} rows; oracle {b.dtype}, {len(b)} rows)")
    return found


def main(paths) -> int:
    failed = False
    for path in paths:
        found = differences(path)
        failed |= bool(found)
        print(f"{path}: " + ("differs in " + ", ".join(found) if found else "same"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
