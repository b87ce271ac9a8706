"""The LiM flow benchmark: five workloads, end-to-end and per-layer.

Run one workload with::

    python3 perfbench/run.py --workload fig3_flow --seed 1 --seconds 10 --trace 0

``perfbench/layers.py`` is the metric catalog (and regenerates
``BENCHMARK.json``); ``perfbench/harness.py`` holds the span recorder,
self-time arithmetic and reporting; ``perfbench/instrument.py`` wraps
the program's public layer entry points for the traced run; one module
per workload lives in ``perfbench/workloads/``.
"""
