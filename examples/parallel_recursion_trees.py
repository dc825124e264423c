#!/usr/bin/env python3
"""Parallel recursion: tree traversals under consolidation.

Tree Descendants is the paper's pathological case: the natural recursive
port launches a ``<<<1,1>>>`` kernel *per tree node*. Consolidation turns
that into one kernel launch per tree level — grid-level consolidation of a
recursive kernel literally *is* level-synchronous traversal, which the
paper points out in §VI when comparing against [3].

This example shows the recursion depth collapsing: basic-dp needs
thousands of nested launches; the consolidated code needs one per level.

Run:  python examples/parallel_recursion_trees.py
"""

from repro.apps import BASIC, BLOCK, FLAT, GRID, WARP, get_app
from repro.experiments import RunSpec
from repro.compiler import consolidate_source
from repro.workloads.generators import tree_dataset1, tree_dataset2
from repro.experiments.reporting import Table


def main():
    app = get_app("td")
    for dataset in (tree_dataset1(0.5), tree_dataset2(0.5)):
        print(f"dataset: {dataset.stats()}")
        table = Table(
            title=f"Tree Descendants on {dataset.name}",
            columns=["variant", "cycles", "child launches", "speedup"],
        )
        base = None
        for variant in (BASIC, FLAT, WARP, BLOCK, GRID):
            run = app.run(RunSpec(app.key, variant), dataset=dataset)
            m = run.metrics
            if base is None:
                base = m.cycles
            table.add(variant, f"{m.cycles:,.0f}", m.device_launches,
                      base / m.cycles)
        print(table.render())
        print()

    # show the consolidated recursion: the kernel relaunches *itself* on
    # the next level's buffer
    result = consolidate_source(app.annotated_source(), granularity="grid")
    print("generated recursive kernel (grid level):")
    source = result.source
    start = source.index("__global__ void td_rec_cons_grid")
    print(source[start:start + 900], "...\n")
    print(f"report: {result.report.describe()}")


if __name__ == "__main__":
    main()
