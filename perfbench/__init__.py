"""Benchmark for the wppsc toolbox: workloads, correctness checks and tracing.

Run it through ``perfbench/run.py``; see ``perfbench/README.md``.
"""
