"""Benchmark harness for polyface; entry point: perfbench/run.py."""
