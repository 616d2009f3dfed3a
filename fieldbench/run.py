"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 fieldbench/run.py --workload serve-read --seed 1 \\
        --seconds 20 --trace 0

Diagnostics go to standard output as ``# tag: {...}`` lines; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--smoke`` runs the same code on small
inputs in seconds.  Exits 1 when any answer or count check fails, and
2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread per process, inherited by the server child too; must
# be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-read", "batch-sharded",
                                 "update-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # A TERM from outside still runs every cleanup (servers stopped).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from fieldbench.workloads import Run
    run = Run(ROOT, args.workload, args.seed, args.seconds,
              bool(args.trace), args.smoke)
    result = run.execute()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
