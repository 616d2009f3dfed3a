"""Repository benchmark: end-to-end and per-layer metrics of the field engine.

``python3 fieldbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; see ``run.py``.
"""
