#!/usr/bin/env python3
"""Alternate fieldbench runs of two checkouts and compare their metrics.

Given a parent and a change checkout (for example two ``git archive REV |
tar -x -C DIR`` trees), runs ``fieldbench/run.py --trace 0`` of one
workload in pairs, each as long as ``BENCHMARK.json``'s ``run_seconds``.
Pair *i* runs seed ``--seed + i`` on both sides, and the side that runs
first swaps from one pair to the next, so a host that drifts during the
session drifts on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the parent's quartiles, the median ratio (change over parent),
how many pairs the change won (ties count for neither), and whether the
change's median stays within the metric's bound.  It also prints each
side's failed operations and failed runs: a run fails on a nonzero exit
status, on ``correct`` false (a failed count or guard check, even with
no failed operation) or on a failed operation.

Usage::

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload batch-sharded \\
        --pairs 5 --seed 301

Exit status: 0 when every metric stays within its bound and no run
failed, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Compare one metric's paired runs against its ``BENCHMARK.json``
    entry (``better`` and ``bound``); ``parent[i]`` and ``change[i]``
    are pair *i*."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    before, after = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (before - after) / abs(before) if before else 0.0
    return {"name": spec["name"], "parent_median": before,
            "change_median": after, "parent_q1": q1, "parent_q3": q3,
            "ratio": after / before if before else float("nan"),
            "wins": wins, "pairs": len(parent),
            "within_bound": worse_by <= spec["bound"]}


def run_failed(returncode: int, result: dict) -> bool:
    """Whether one run failed: a nonzero exit status, ``correct`` false
    or a failed operation."""
    return bool(returncode or not result["correct"] or result["failed"])


def format_summary(rows: list[dict], failed: dict[str, int],
                   failed_runs: dict[str, int]) -> str:
    """The comparison as aligned text, one line per metric."""
    lines = [f"{'metric':<20} {'parent':>10} {'change':>10} "
             f"{'parent q1..q3':^22} {'ratio':>7} {'wins':>6}  bound"]
    for row in rows:
        lines.append(
            f"{row['name']:<20} {row['parent_median']:>10.4g} "
            f"{row['change_median']:>10.4g} "
            f"{row['parent_q1']:>10.4g}..{row['parent_q3']:<10.4g} "
            f"{row['ratio']:>6.3f}x {row['wins']:>2}/{row['pairs']:<3}  "
            + ("within" if row["within_bound"] else "OUTSIDE"))
    lines.append("failed operations: " + ", ".join(
        f"{side} {failed[side]}" for side in SIDES))
    lines.append("failed runs: " + ", ".join(
        f"{side} {failed_runs[side]}" for side in SIDES))
    return "\n".join(lines)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[int, dict]:
    """One ``--trace 0`` run in ``checkout``: its exit status and its
    final JSON line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run printed nothing "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    for line in lines:
        if line.startswith("# FAIL"):
            print(f"{checkout}: {line}", file=sys.stderr)
    return proc.returncode, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 tools/ab.py",
        description="paired fieldbench comparison of two checkouts")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i runs seed+i")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    values: dict[str, dict[str, list[float]]] = {s: {} for s in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    failed_runs = dict.fromkeys(SIDES, 0)
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            code, result = run_once(checkouts[side], config["command"],
                                    args.workload, seed,
                                    config["run_seconds"])
            bad = run_failed(code, result)
            failed[side] += result["failed"]
            failed_runs[side] += bad
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{name}={v[-1]:.5g}" for name, v in values[side].items())
                + (" FAILED" if bad else ""), flush=True)
    rows = [summarize(spec, values["parent"][spec["name"]],
                      values["change"][spec["name"]])
            for spec in config["end_to_end"]
            if spec["name"] in values["parent"]
            and spec["name"] in values["change"]]
    print(format_summary(rows, failed, failed_runs))
    ok = all(row["within_bound"] for row in rows) and not any(
        failed_runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
