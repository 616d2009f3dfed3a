#!/usr/bin/env python3
"""Profile the query hot path with cProfile and print the top-N rows.

Builds a synthetic field, indexes it with one access method, runs the
Fig. 8a query mix through the batch engine under :mod:`cProfile`, and
prints the top-N functions by cumulative time — the quickest way to see
where a query actually spends its cycles (and the artifact CI uploads
so a perf regression comes with its own profile attached).

Standard-library profiling only (cProfile + pstats); the engine itself
needs numpy, like every other entry point.

Usage::

    PYTHONPATH=src python tools/profile_query.py
    PYTHONPATH=src python tools/profile_query.py --method LinearScan \
        --size 256 --top 40 --out results/profile.txt

Exit status: 0 on success, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/profile_query.py",
        description="cProfile the value-query hot path")
    parser.add_argument("--method", default="I-Hilbert",
                        choices=["LinearScan", "I-All", "I-Hilbert"],
                        help="access method to profile (default: "
                             "I-Hilbert)")
    parser.add_argument("--size", type=int, default=128,
                        help="field side length in cells (default: 128)")
    parser.add_argument("--queries", type=int, default=10,
                        help="queries per Qinterval setting (default: 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload/data RNG seed")
    parser.add_argument("--top", type=int, default=25,
                        help="profile rows to print (default: 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)

    from repro.bench.experiments import QINTERVALS_FIG8
    from repro.core import (
        BatchQueryEngine,
        IAllIndex,
        IHilbertIndex,
        LinearScanIndex,
    )
    from repro.synth import roseburg_like, value_query_workload

    factories = {
        "LinearScan": LinearScanIndex,
        "I-All": IAllIndex,
        "I-Hilbert": IHilbertIndex,
    }
    field = roseburg_like(cells_per_side=args.size)
    index = factories[args.method](field)
    workload = []
    for q in QINTERVALS_FIG8:
        workload += value_query_workload(field.value_range, q,
                                         count=args.queries,
                                         seed=args.seed)
    engine = BatchQueryEngine(index, cache_pages=1024, merge=True)
    # Warm-up pass so import-time and first-touch costs (page cache
    # fills, lazy allocations) stay out of the profile.
    engine.run(workload)
    index.clear_caches()
    index.stats.reset()

    profiler = cProfile.Profile()
    profiler.enable()
    result = engine.run(workload)
    profiler.disable()

    buf = io.StringIO()
    buf.write(f"profile: method={args.method} "
              f"field={args.size}x{args.size} "
              f"queries={len(workload)} seed={args.seed}\n")
    buf.write(f"batch: {result.groups} groups, "
              f"{result.io.page_reads} page reads, "
              f"{result.total_candidates} candidates\n\n")
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    report = buf.getvalue()
    print(report, end="")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report)
        print(f"(written to {out})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
