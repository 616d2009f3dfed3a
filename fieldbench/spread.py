"""Run-to-run spread of the end-to-end metrics, over two sets of runs.

Usage, from the root of a checkout::

    python3 fieldbench/spread.py [--workload NAME ...] [--out FILE]

Runs every workload once for each of the seeds 1..10, for
``run_seconds`` from BENCHMARK.json, and then does all of it a second
time.  Prints for every end-to-end metric and set its median and its
quartile spread (``statistics.quantiles``, quartile distance over the
median), and how far the second median moved from the first in the
metric's worse direction, beside the metric's bound.  Exits 1 when a run
fails, a spread other than ``setup_s``'s exceeds its bound, or a median
moves by more than its bound.  With ``--out``, also writes the figures
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from fieldbench.stats import spread  # noqa: E402

SEEDS = range(1, 11)
SETS = ("first", "second")


def run_set(config, name, metrics) -> tuple[dict, list[float], bool]:
    """Metric values and wall times of one run per seed of ``name``."""
    values: dict[str, list[float]] = {m: [] for m in metrics}
    walls = []
    ok = True
    for seed in SEEDS:
        t0 = time.monotonic()
        proc = subprocess.run(
            config["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(config["run_seconds"]),
                                 "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.monotonic() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"] or result["failed"]:
            ok = False
            print(f"{name} seed {seed}: FAILED\n{proc.stdout}",
                  file=sys.stderr)
        for metric in metrics:
            values[metric].append(result["metrics"][metric]["value"])
        print(f"{name} seed {seed}: {walls[-1]:.1f} s "
              + " ".join(f"{m}={v[-1]:.5g}" for m, v in values.items()),
              flush=True)
    return values, walls, ok


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}

    values = {name: {} for name in workloads}
    walls = {name: [] for name in workloads}
    ok = True
    for which in SETS:
        for name in workloads:
            values[name][which], w, run_ok = run_set(config, name, metrics)
            walls[name] += w
            ok &= run_ok

    report = {}
    for name in workloads:
        rows = {}
        print(name)
        for metric, spec in metrics.items():
            row = {"bound": spec["bound"]}
            for which in SETS:
                vals = values[name][which][metric]
                row[which] = {"median": statistics.median(vals),
                              "spread": spread(vals)}
            first, second = (row[w]["median"] for w in SETS)
            moved = (second - first) / first if first else 0.0
            row["worse_by"] = moved if spec["better"] == "lower" else -moved
            over = row["worse_by"] > spec["bound"] or (
                metric != "setup_s" and any(
                    row[w]["spread"] > spec["bound"] for w in SETS))
            ok &= not over
            rows[metric] = row
            print(f"  {metric:>22}  median {row['first']['median']:>11.6g}"
                  f" / {row['second']['median']:<11.6g}"
                  f" spread {row['first']['spread']:.4f}"
                  f" / {row['second']['spread']:.4f}"
                  f"  worse by {row['worse_by']:+.4f}"
                  f"  bound {spec['bound']}{'  OVER' if over else ''}",
                  flush=True)
        report[name] = {"seeds": list(SEEDS),
                        "run_wall_s": statistics.median(walls[name]),
                        "metrics": rows, "values": values[name]}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
