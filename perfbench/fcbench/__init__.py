"""Benchmark harness for fanocone: workloads, independent checks, tracing.

Nothing here is imported by the package; the package is imported from the
checkout's ``src`` directory by ``perfbench/run.py``.
"""
