"""Steady end-to-end and per-layer benchmark of the Sharon reproduction.

Run ``python3 perfbench/run.py --workload shared_core --seed 1 --seconds 22
--trace 0`` from the repository root; see ``perfbench/README.md``. The
modules here only define functions and classes: importing them starts no
Spark session and does no work.
"""
