"""Smoke mode: every workload and its oracle, end to end, in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics, or name prefixes, of the layers every workload runs.
COMMON = ("facade.query_ms", "facade.unattributed_share", "rstar.search_us",
          "rstar.hits_per_search", "grouped.", "records.read_pages_us",
          "codec.", "disk.", "field.")
#: ... and of the layers each workload runs besides.  Every other
#: per-layer metric must read 0 there; trace.overhead is neither.
LAYERS_RUN = {
    "serve-read": COMMON + ("serve.", "facade.batch_ms",
                            "facade.aggregate_ms", "batch.", "buffer.",
                            "aggregate.eval_us", "aggregate.exact_share",
                            "aggregate.pages_per_call"),
    "batch-sharded": COMMON + ("facade.batch_ms", "batch.", "buffer.",
                               "shard.", "remote."),
    "update-mixed": COMMON + ("facade.aggregate_ms", "facade.update_ms",
                              "rstar.", "aggregate.", "wal.", "records.",
                              "update.", "compact."),
}


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "fieldbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONFIG["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        runs = LAYERS_RUN[workload]
        for name, metric in result["metrics"].items():
            if name == "trace.overhead":
                continue
            if name.startswith(runs):
                assert metric["value"] > 0, f"{name}: its layer runs"
            else:
                assert metric["value"] == 0, f"{name}: its layer does not run"
    assert any(line.startswith("# host: ")
               for line in proc.stdout.splitlines())


def test_counts_repeat_across_runs_of_one_seed():
    first = run("update-mixed", 0, seed=11)
    second = run("update-mixed", 0, seed=11)
    assert first.returncode == 0 and second.returncode == 0, second.stdout
    counts = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
              for p in (first, second)]
    for name in ("pages_per_query", "device_ms_per_query", "space_amp"):
        assert counts[0][name] == counts[1][name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fieldbench", tmp_path / "fieldbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("serve-read", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
