"""Log parsing, half-splitting, baselines, and streak replay."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from notif_ltv import LogParseError, SendLog, build_dataset, read_log
from oracles import build_dataset_oracle


def write_log(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def row(uid="u1", utype=1, ts=0, score=0.5, outcome=1):
    return {"user_id": uid, "user_type": utype, "timestamp": ts,
            "raw_score": score, "outcome": outcome}


def one_user_log(outcomes, uid="u1"):
    """One user's sends at timestamps 0, 1, ..., scores i / 1024 so that a
    record's score names the send it came from."""
    n = len(outcomes)
    return SendLog.from_rows([uid] * n, [1] * n, range(n), [i / 1024 for i in range(n)],
                             outcomes)


class TestReadLog:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        log = read_log(path)
        assert len(log) == 0 and log.users == ()

    def test_events_sorted_within_user(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(ts=30), row(ts=10), row(ts=20)])
        log = read_log(path)
        assert log.users == ("u1",)
        assert log.timestamp.tolist() == [10, 20, 30]

    def test_outcome_out_of_domain_names_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(), row(outcome=2)])
        with pytest.raises(LogParseError, match="line 2"):
            read_log(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"user_id": "u1"\nnot json\n')
        with pytest.raises(LogParseError, match="line 1"):
            read_log(path)

    def test_unknown_user_type_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(utype=9)])
        with pytest.raises(LogParseError, match="user_type"):
            read_log(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        bad = row()
        del bad["raw_score"]
        write_log(path, [bad])
        with pytest.raises(LogParseError, match="raw_score"):
            read_log(path)

    def test_score_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(score=1.5)])
        with pytest.raises(LogParseError, match="raw_score"):
            read_log(path)

    def test_users_sorted_by_id(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid="b"), row(uid="a"), row(uid="c")])
        log = read_log(path)
        assert log.users == ("a", "b", "c")
        assert log.user.tolist() == [0, 1, 2]

    def test_user_changing_type_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(utype=1), row(utype=2, ts=1)])
        with pytest.raises(LogParseError, match="changes type"):
            read_log(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(row()) + "\n\n" + json.dumps(row(ts=1)) + "\n")
        assert len(read_log(path)) == 2

    @pytest.mark.parametrize("ts", [2 ** 63, -2 ** 63 - 1])
    def test_timestamp_outside_int64_names_line(self, tmp_path, ts):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(), row(ts=ts)])
        with pytest.raises(LogParseError, match="line 2: timestamp"):
            read_log(path)

    def test_ids_differing_by_trailing_nul_stay_distinct(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid="a\u0000", ts=i) for i in range(4)]
                  + [row(uid="a", ts=i, outcome=0) for i in range(2)])
        log = read_log(path)
        assert log.users == ("a", "a\u0000")
        assert log.user.tolist() == [0, 0, 1, 1, 1, 1]
        records = build_dataset(log, min_samples=1)
        assert records.user.tolist() == [0, 1, 1]
        assert records.baseline_rate.tolist() == [0.0, 1.0, 1.0]


class TestSplitHalves:
    @pytest.mark.parametrize("n,expected", [(10, (5, 5)), (7, (3, 4)), (0, (0, 0)), (1, (0, 1))])
    def test_floor_split_sizes(self, n, expected):
        log = one_user_log([1] * n)
        records = build_dataset(log, min_samples=1)
        # the second half becomes the records; an empty first half excludes the user
        first, second = expected
        assert len(records) == (second if first >= 1 else 0)
        if first >= 1:
            assert records.raw_score.tolist() == log.raw_score[first:].tolist()

    @given(st.integers(0, 50))
    def test_lossless(self, n):
        # a first half of k sends with one open has baseline 1 / k
        log = one_user_log([1] + [0] * (n - 1) if n else [])
        records = build_dataset(log, min_samples=1)
        if n < 2:  # an empty first half excludes the user
            assert len(records) == 0
            return
        first = round(1 / records.baseline_rate[0])
        assert first + len(records) == n
        assert records.raw_score.tolist() == log.raw_score[first:].tolist()


class TestEstimateBaseline:
    def test_alternating_outcomes_give_half(self):
        records = build_dataset(one_user_log([i % 2 for i in range(20)]), min_samples=10)
        assert len(records) == 10
        assert records.baseline_rate.tolist() == [0.5] * 10

    def test_too_few_events_excluded(self):
        assert len(build_dataset(one_user_log([1] * 8), min_samples=10)) == 0

    def test_all_opens_give_one(self):
        records = build_dataset(one_user_log([1] * 20), min_samples=10)
        assert records.baseline_rate.tolist() == [1.0] * 10

    def test_min_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            build_dataset(one_user_log([]), min_samples=0)


class TestFlatten:
    def test_streaks_replay_outcomes(self):
        records = build_dataset(one_user_log([1, 0, 1, 0] + [1, 1, 0, 1]), min_samples=1)
        assert records.streak.tolist() == [0, 1, 2, -1]
        assert records.outcome.tolist() == [1, 1, 0, 1]
        assert records.baseline_rate.tolist() == [0.5] * 4

    def test_empty_input(self):
        assert len(build_dataset(one_user_log([]), min_samples=1)) == 0

    def test_two_ignores(self):
        records = build_dataset(one_user_log([1, 1, 0, 0]), min_samples=1)
        assert records.streak.tolist() == [0, -1]

    def test_excluded_baseline_rejected(self):
        log = SendLog.from_rows(["a"] * 2 + ["b"] * 6, [1] * 8, [0, 1] + list(range(6)),
                                [0.5] * 8, [1] * 8)
        records = build_dataset(log, min_samples=2)
        assert log.users == ("a", "b")
        assert records.user.tolist() == [1] * 3  # user "a" contributes no records

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_record_count_and_open_rate_cross_check(self, outcomes):
        records = build_dataset(one_user_log([0] * len(outcomes) + outcomes), min_samples=1)
        assert len(records) == len(outcomes)
        assert records.outcome.sum() / len(records) == \
            sum(outcomes) / len(outcomes)


def test_build_dataset_skips_excluded_users(tmp_path):
    path = tmp_path / "log.jsonl"
    rows = []
    # u1: 20 events -> first half 10 >= min_samples; u2: 4 events -> excluded
    for i in range(20):
        rows.append(row(uid="u1", ts=i, outcome=i % 2))
    for i in range(4):
        rows.append(row(uid="u2", ts=i))
    write_log(path, rows)
    log = read_log(path)
    records = build_dataset(log, min_samples=10)
    assert {log.users[u] for u in records.user.tolist()} == {"u1"}
    assert len(records) == 10  # u1's second half


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columnar_dataset_matches_per_user_oracle(tmp_path_factory, data):
    """Every record column equals the per-user split, baseline and replay of
    the scalar oracle. Logs hold excluded users, odd send counts, equal
    timestamps within a user, runs long enough to reach both streak bounds,
    and only some of the user types."""
    lo = -data.draw(st.integers(1, 3))
    hi = data.draw(st.integers(1, 3))
    min_samples = data.draw(st.integers(1, 4))
    types = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=1, max_size=3,
                               unique=True))
    rows = []
    for u in range(data.draw(st.integers(1, 8))):
        uid, utype = f"user{data.draw(st.integers(0, 99))}", data.draw(st.sampled_from(types))
        if any(r["user_id"] == uid for r in rows):
            continue
        n = data.draw(st.integers(0, 30))
        outcomes = data.draw(st.lists(st.sampled_from([0, 0, 1, 1, 1]), min_size=n, max_size=n))
        stamps = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        rows += [row(uid=uid, utype=utype, ts=t, score=data.draw(st.floats(0, 1)), outcome=o)
                 for t, o in zip(stamps, outcomes)]
    order = data.draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    write_log(path, rows)

    log = read_log(path)
    got = build_dataset(log, min_samples=min_samples, bounds=(lo, hi))
    want = build_dataset_oracle(rows, min_samples=min_samples, bounds=(lo, hi))
    assert [log.users[u] for u in got.user.tolist()] == [r[0] for r in want]
    for i, column in enumerate(("user_type", "streak", "outcome", "baseline_rate",
                                "raw_score"), start=1):
        assert getattr(got, column).tolist() == [r[i] for r in want], column


def test_columnar_dataset_oracle_cases_cover_the_edges():
    """The random logs of the differential test reach what it claims: a fixed
    log with every edge case matches the oracle too."""
    rows = ([row(uid="long", utype=2, ts=t // 2, outcome=o, score=0.01 * t)
             for t, o in enumerate([1, 0] * 5 + [1] * 6 + [0] * 6 + [1])]
            + [row(uid="short", utype=4, ts=t) for t in range(3)]
            + [row(uid="odd", utype=2, ts=5, outcome=t % 2, score=0.5) for t in range(7)])
    log = SendLog.from_rows(*zip(*[(r["user_id"], r["user_type"], r["timestamp"],
                                    r["raw_score"], r["outcome"]) for r in rows]))
    got = build_dataset(log, min_samples=2, bounds=(-3, 3))
    want = build_dataset_oracle(rows, min_samples=2, bounds=(-3, 3))
    assert got.streak.tolist() == [r[2] for r in want]
    assert got.baseline_rate.tolist() == [r[4] for r in want]
    assert {3, -3} <= set(got.streak.tolist())  # both bounds reached
    assert "short" not in {log.users[u] for u in got.user.tolist()}
    assert np.isin(got.user_type, [2]).all()
