#!/usr/bin/env python3
"""Irregular loops: SpMV with long-row delegation, across all granularities
and all three buffer allocators.

This is the paper's §II.B "irregular loops" pattern on a real workload:
CSR SpMV where rows longer than a threshold are delegated to child
kernels. The sweep reproduces in miniature what Figs. 5 and 7 measure —
pick a granularity, pick an allocator, see the cost move.

Run:  python examples/irregular_loops_spmv.py
"""

from repro.apps import BASIC, BLOCK, FLAT, GRID, WARP, get_app
from repro.experiments import RunSpec
from repro.experiments.reporting import Table


def main():
    app = get_app("spmv")
    dataset = app.default_dataset(scale=0.5)
    print(f"dataset: {dataset.stats()}\n")

    base = app.run(RunSpec(app.key, BASIC), dataset=dataset)
    print(f"basic-dp: {base.metrics.cycles:,.0f} cycles, "
          f"{base.metrics.device_launches} child launches\n")

    table = Table(
        title="SpMV: speedup over basic-dp by granularity and allocator",
        columns=["variant", "pre-alloc", "halloc", "default", "launches"],
    )
    flat = app.run(RunSpec(app.key, FLAT), dataset=dataset)
    table.add("no-dp (flat)", base.metrics.cycles / flat.metrics.cycles,
              "-", "-", 0)
    for variant in (WARP, BLOCK, GRID):
        row = [variant]
        launches = 0
        for alloc in ("custom", "halloc", "default"):
            run = app.run(RunSpec(app.key, variant, allocator=alloc),
                          dataset=dataset)
            row.append(base.metrics.cycles / run.metrics.cycles)
            launches = run.metrics.device_launches
        row.append(launches)
        table.add(*row)
    print(table.render())
    print("\nthings to notice (paper §V.A):")
    print(" * the pre-allocated pool wins wherever many buffers are allocated")
    print(" * grid-level allocates a single buffer, so allocators tie there")
    print(" * every consolidated variant crushes basic-dp")


if __name__ == "__main__":
    main()
