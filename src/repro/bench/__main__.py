"""Command-line front end: ``python -m repro.bench <experiment>``.

Regenerates any table/figure of the paper; see DESIGN.md for the mapping
from experiment ids to paper figures.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, _render


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's experiments "
                    "(EDBT 2002, Kang et al.)")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="experiment id (paper figure) to run")
    parser.add_argument("--full", action="store_true",
                        help="force the paper's full data sizes "
                             "(only fig11 defaults to a smaller size)")
    parser.add_argument("--small", action="store_true",
                        help="force laptop-scale data sizes for a quick run")
    parser.add_argument("--queries", type=int, default=None,
                        help="random queries per Qinterval (default: "
                             "each experiment's own, paper: 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload/data RNG seed")
    parser.add_argument("--estimate", default="area",
                        choices=["none", "area", "regions"],
                        help="estimation-step mode (default: area)")
    parser.add_argument("--warm", action="store_true",
                        help="warm-cache regime: buffer pool retained "
                             "across queries, time is CPU-bound "
                             "(default: cold, simulated-disk-bound)")
    parser.add_argument("--workers", default=None,
                        help="throughput only: comma-separated worker "
                             "counts to sweep (default: 1,2,4,8)")
    parser.add_argument("--smoke", action="store_true",
                        help="throughput/update/serve/shard/micro/"
                             "aggregate only: "
                             "tiny field and workload, exit 1 on "
                             "regression (CI gate; micro gates ns/op "
                             "against the committed BENCH_micro.json)")
    parser.add_argument("--updates", type=int, default=None,
                        help="update only: length of the random vertex "
                             "update stream (default: 1000)")
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    if args.full and args.small:
        parser.error("--full and --small are mutually exclusive")
    # Every runner takes the options it knows and ignores the rest.
    options = dict(seed=args.seed, estimate=args.estimate, smoke=args.smoke)
    if args.queries is not None:
        options["queries"] = args.queries
    if args.warm:
        options["warm"] = True
    if args.full or args.small:
        options["full"] = args.full
    if args.workers:
        options["workers"] = tuple(int(w) for w in args.workers.split(","))
    if args.updates is not None:
        options["updates"] = args.updates
    for name in names:
        result = EXPERIMENTS[name](**options)
        print(_render(result))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
