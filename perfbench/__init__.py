"""End-to-end and per-layer benchmark of the layerfem package.

Run it from the repository root:

    python3 perfbench/run.py --workload solve_csv --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, metrics and output format.
"""
