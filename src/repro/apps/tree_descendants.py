"""Tree Descendants (TD) — depth-weighted subtree aggregation.

Computes ``total = sum over nodes u of values[u] * depth(u)`` (root depth
1) by descending the tree recursively. The basic-dp port is the *worst
possible* DP shape and deliberately so: every node is processed by a
**solo-thread** kernel (``<<<1,1>>>``) that loops over its children and
launches one nested kernel per child — the launch count equals the node
count, which is why the paper's TD shows the largest basic-dp slowdowns
(the 3300x end of the range).

Exercises the §IV.C *solo thread* child case and launches inside a loop.
Datasets: tree dataset1/dataset2. Result: single-element sum.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_tree

ANNOTATED = r"""
__global__ void td_rec(int* child_ptr, int* child_idx, int* values, int* total,
                       int u, int depth) {
    int beg = child_ptr[u];
    int deg = child_ptr[u + 1] - beg;
    atomicAdd(&total[0], values[u] * depth);
    #pragma dp consldt(grid) work(c)
    for (int i = 0; i < deg; i++) {
        int c = child_idx[beg + i];
        td_rec<<<1, 1>>>(child_ptr, child_idx, values, total, c, depth + 1);
    }
}
"""

FLAT_SRC = r"""
__global__ void td_levels(int* depths, int* child_ptr, int* child_idx,
                          int* changed, int level, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (depths[u] == level) {
            int beg = child_ptr[u];
            int deg = child_ptr[u + 1] - beg;
            for (int i = 0; i < deg; i++) {
                depths[child_idx[beg + i]] = level + 1;
                changed[0] = 1;
            }
        }
    }
}

__global__ void td_reduce(int* depths, int* values, int* total, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        atomicAdd(&total[0], values[u] * depths[u]);
    }
}
"""


@register
class TreeDescendantsApp(App):
    key = "td"
    label = "TD"
    has_delegation_guard = False
    kind = "tree"
    default_workload = "tree2"

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def host_run(self, device, program, dataset, run):
        t = dataset
        n = t.num_nodes
        child_ptr, child_idx, values = upload_tree(device, t)
        total = device.from_numpy("total", np.zeros(1, dtype=np.int32))
        if run.variant == FLAT:
            d0 = np.zeros(n, dtype=np.int32)
            d0[0] = 1
            depths = device.from_numpy("depths", d0)
            changed = device.from_numpy("changed", np.zeros(1, dtype=np.int32))
            grid = blocks_for(n)
            level = 1
            while True:
                changed.data[0] = 0
                program.launch("td_levels", grid, 128, depths, child_ptr,
                               child_idx, changed, level, n)
                level += 1
                if changed.data[0] == 0 or level > n:
                    break
            program.launch("td_reduce", grid, 128, depths, values, total, n)
        else:
            program.launch("td_rec", 1, 1, child_ptr, child_idx, values,
                           total, 0, 1)
        return total.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        t = dataset
        depths = t.node_depths() + 1  # root = depth 1
        return np.array([int(np.sum(t.values.astype(np.int64) * depths))],
                        dtype=np.int32)
