"""The summary statistics of ``tools/ab.py`` on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

RATE = {"name": "queries_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "query_p50_ms", "better": "lower", "bound": 0.25}


def test_higher_is_better_medians_quartiles_ratio_and_wins():
    row = ab.summarize(RATE, [100.0, 110.0, 90.0, 105.0, 95.0],
                       [150.0, 160.0, 90.0, 100.0, 170.0])
    assert row["parent_median"] == 100.0
    assert row["change_median"] == 150.0
    assert (row["parent_q1"], row["parent_q3"]) == (95.0, 105.0)
    assert row["ratio"] == 1.5
    # Pair 2 is a tie (90 against 90) and counts for neither side.
    assert (row["wins"], row["pairs"]) == (3, 5)
    assert row["within_bound"]


def test_lower_is_better_wins_and_the_bound():
    row = ab.summarize(LATENCY, [2.0, 2.0, 2.0], [1.0, 3.0, 2.4])
    assert row["wins"] == 1
    assert row["change_median"] == 2.4
    assert row["ratio"] == pytest.approx(1.2)
    assert row["within_bound"]          # 20% worse, bound 25%
    worse = ab.summarize(LATENCY, [2.0, 2.0, 2.0], [2.6, 2.6, 2.6])
    assert not worse["within_bound"]    # 30% worse
    slower = ab.summarize(RATE, [100.0] * 3, [74.0] * 3)
    assert not slower["within_bound"] and slower["wins"] == 0


def test_one_pair_has_its_value_as_both_quartiles():
    assert ab.quartiles([7.0]) == (7.0, 7.0)


def test_summary_names_every_metric_and_the_failures():
    rows = [ab.summarize(RATE, [100.0], [150.0]),
            ab.summarize(LATENCY, [2.0], [3.0])]
    text = ab.format_summary(rows, {"parent": 0, "change": 2},
                             {"parent": 0, "change": 1})
    lines = text.splitlines()
    assert lines[1].startswith("queries_per_s") and "1.500x" in lines[1]
    assert lines[1].endswith("within")
    assert lines[2].startswith("query_p50_ms")
    assert lines[2].endswith("OUTSIDE")
    assert lines[-2] == "failed operations: parent 0, change 2"
    assert lines[-1] == "failed runs: parent 0, change 1"


def _result(correct=True, failed=0, rate=100.0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"queries_per_s": {"value": rate}}}


def test_a_run_fails_on_its_exit_status_correct_flag_or_failed_ops():
    assert not ab.run_failed(0, _result())
    assert ab.run_failed(1, _result())
    # A failed count or guard check: no operation failed, yet the run
    # is not correct.
    assert ab.run_failed(0, _result(correct=False))
    assert ab.run_failed(0, _result(failed=1))


def test_an_incorrect_run_fails_the_comparison(monkeypatch, capsys):
    # Every metric is within its bound and no operation failed, but one
    # change run reports correct false: the comparison exits 1.
    runs = iter([(0, _result()), (0, _result(correct=False)),
                 (0, _result()), (0, _result())])
    monkeypatch.setattr(ab, "run_once", lambda *args: next(runs))
    assert ab.main(["p", "c", "--workload", "w", "--pairs", "2",
                    "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith(" FAILED") and "change" in out[1]
    assert out[-2] == "failed operations: parent 0, change 0"
    assert out[-1] == "failed runs: parent 0, change 1"
    assert next(line for line in out
                if line.startswith("queries_per_s")).endswith("within")
    runs = iter([(0, _result())] * 2)
    assert ab.main(["p", "c", "--workload", "w", "--pairs", "1",
                    "--seed", "1"]) == 0
