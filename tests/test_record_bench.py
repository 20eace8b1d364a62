"""tests/record_bench.py's pairing and summaries, on fake run results."""

from record_bench import _ahead, _quartiles, _summary

HIGHER = {"name": "norm_items_per_s", "better": "higher"}
LOWER = {"name": "setup_s", "better": "lower"}


def result(value, correct=True):
    """A run's result as perfbench/run.py prints it, value on both metrics."""
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {"norm_items_per_s": {"value": value}, "setup_s": {"value": value}}}


def test_ahead_follows_each_metrics_direction():
    mine, theirs = [result(1.0), result(3.0), result(5.0)], [result(2.0)] * 3
    assert _ahead(mine, theirs, HIGHER) == 2
    assert _ahead(mine, theirs, LOWER) == 1


def test_a_tie_counts_for_neither_side():
    mine, theirs = [result(2.0), result(3.0)], [result(2.0), result(1.0)]
    assert (_ahead(mine, theirs, HIGHER), _ahead(theirs, mine, HIGHER)) == (1, 0)
    assert (_ahead(mine, theirs, LOWER), _ahead(theirs, mine, LOWER)) == (0, 1)


def test_a_run_without_a_result_drops_its_pair():
    mine, theirs = [None, result(3.0), result(3.0)], [result(1.0), None, result(1.0)]
    assert (_ahead(mine, theirs, HIGHER), _ahead(theirs, mine, HIGHER)) == (1, 0)
    assert (_ahead(mine, theirs, LOWER), _ahead(theirs, mine, LOWER)) == (0, 1)


def test_summary_is_not_correct_when_a_run_is_missing_or_not_correct():
    metrics = [HIGHER, LOWER]
    assert _summary([result(1.0), result(2.0)], metrics)["correct"] is True
    missing = _summary([result(1.0), None], metrics)
    assert (missing["correct"], missing["results"], missing["attempted"]) == (False, 1, 10)
    assert _summary([result(1.0), result(2.0, correct=False)], metrics)["correct"] is False
    assert _summary([None], metrics) == {"correct": False, "results": 0, "attempted": 0,
                                         "failed": 0}


def test_quartiles_of_one_value_are_that_value_three_times():
    assert _quartiles([4.5]) == {"median": 4.5, "q1": 4.5, "q3": 4.5, "values": [4.5]}
