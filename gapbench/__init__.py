"""Benchmark harness for gapstress: timed workloads, correctness gates and a
traced per-layer run.  ``python3 gapbench/run.py --help`` explains usage."""
