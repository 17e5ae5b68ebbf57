"""Serving-path benchmark for the BlinkRadar reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
drives the shipped code from outside: a ``BatchedPipeline`` re-scoring
run in a fresh process, and a ``python -m repro gateway serve`` process
fed over TCP by the benchmark's own open-loop generator. See
``perfbench/README.md`` for the workloads, metrics and the layer model.
"""
