"""Benchmark harness for suploc: workloads, tracer and the ``run.py`` entry point."""
