"""The repository's end-to-end benchmark (see ``perfbench/METRICS.md``).

Run from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0

The package holds no program code: it drives ``repro`` through its
public functions and measures it from outside.
"""
