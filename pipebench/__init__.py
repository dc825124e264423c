"""Layered end-to-end benchmark of the reproduction.

Run from the repository root::

    python3 -m pipebench --workload regen-cold --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` is a separate run that rebinds the layer boundaries
(:mod:`pipebench.layers`), alternates traced and untraced passes, and
reports per-layer metrics, the tracing overhead and span coverage, with
a Chrome trace and an attribution table under ``pipebench/results/``.
The workloads are described in :mod:`pipebench.workloads`; the metric
names, units and bounds in ``BENCHMARK.json``.
"""
