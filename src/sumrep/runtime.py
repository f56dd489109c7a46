"""Placeholder module: sumrep computes in one thread and has no runtime
settings.  It is kept only because the benchmark (``perfbench/run.py``)
imports it to record its environment.
"""
