"""The records behind the committed ``BENCH_*.json`` artifacts.

Every committed artifact must load into its record, round-trip through
``dataclasses.asdict`` and have no problems; a planted defect of each
kind is rejected with a message naming its condition; and a run whose
record has problems exits 1 without writing its artifact.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench.records import RECORDS, SchemaError, load

ROOT = Path(__file__).resolve().parent.parent


def committed(name: str) -> dict:
    """The parsed ``BENCH_<name>.json`` at the repository root."""
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_committed_artifact_loads_round_trips_and_passes(
        name, tmp_path, monkeypatch):
    doc = committed(name)
    record = load(doc)
    assert type(record) is RECORDS[name]
    assert dataclasses.asdict(record) == doc
    assert record.problems() == []
    # finish() writes the very bytes that are committed.
    monkeypatch.chdir(tmp_path)
    record.finish([])
    path = f"BENCH_{name}.json"
    assert (tmp_path / path).read_bytes() == (ROOT / path).read_bytes()


def _model_config(doc):
    return next(c for c in doc["configs"] if c["name"] == "model")


#: (artifact, planted defect, words the problem names).
DEFECTS = {
    "update-recovery": (
        "update", lambda d: d["final"]["compaction"].update(
            recovery_ratio=1.2), "recovery_ratio"),
    "serve-mismatch": (
        "serve", lambda d: d["equivalence"].update(mismatches=1),
        "mismatches"),
    "throughput-slower": (
        "throughput", lambda d: d["methods"][0]["points"][-1].update(
            qps=d["methods"][0]["points"][0]["qps"] - 1.0), "qps fell"),
    "aggregate-model-pages": (
        "aggregate", lambda d: _model_config(d).update(pages=5),
        "configs[model]: pages 5"),
    "micro-kernel": (
        "micro", lambda d: d["kernels"].pop("filter_pack"), "filter_pack"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_is_a_problem(defect):
    name, plant, words = DEFECTS[defect]
    doc = committed(name)
    plant(doc)
    problems = load(doc).problems()
    assert len(problems) == 1 and words in problems[0], problems


def test_a_wrongly_typed_value_does_not_load():
    doc = committed("shard")
    doc["sweep"][0]["verified"] = str(doc["sweep"][0]["verified"])
    with pytest.raises(SchemaError, match=r"sweep\[0\]\.verified must be int"):
        load(doc)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_smoke_artifact_does_not_load(name):
    doc = committed(name)
    doc["smoke"] = True
    with pytest.raises(SchemaError, match="smoke"):
        load(doc)


def test_a_run_with_problems_exits_1_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    doc = committed("shard")
    doc["sweep"][-1]["mismatches"] = 1
    record = load(doc)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        record.finish(["the report"])
    # A string code makes the interpreter print it and exit with 1.
    assert isinstance(exit_info.value.code, str)
    assert "sweep[3]: mismatches: 1 sharded answers differ" \
        in exit_info.value.code
    assert list(tmp_path.iterdir()) == []
    assert "the report" in capsys.readouterr().out


def test_smoke_runs_skip_only_the_full_run_bars():
    doc = committed("aggregate")
    doc["field"].update(cells_per_side=48, cells=48 * 48)
    record = load(doc)
    assert record.problems() == ["top level: field: cells below 4,096 "
                                 "(full runs only)"]
    record.smoke = True
    assert record.problems() == []


def test_micro_smoke_gate_reads_the_pinned_limit():
    pinned = load(committed("micro"))
    doc = committed("micro")
    for stat in ("best_ns_per_op", "median_ns_per_op"):
        doc["kernels"]["page_decode"][stat] *= 1.4
    run = dataclasses.replace(load(doc), smoke=True, pinned=pinned)
    assert set(run.slowdowns()) == set(pinned.kernels)
    assert run.problems() == []
    pinned.gate.max_ratio = 1.3
    assert run.problems() == [
        "top level: kernels[page_decode]: best ns/op 1.40x the pinned"]
