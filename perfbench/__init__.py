"""Benchmark harness for reuse-alloc; see run.py."""
