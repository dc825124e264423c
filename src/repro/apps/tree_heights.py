"""Tree Heights (TH) — parallel recursion over a tree.

Each kernel instance owns a node; one thread per child either recurses
(internal child) or records the leaf's depth with ``atomicMax`` — the tree
height is the deepest leaf level. This is the recursive tree traversal of
Fig. 1(c) with a reduction at the leaves.

The flat baseline is the level-synchronous sweep of [3]: every level
re-scans all n nodes and frontier nodes expand their children serially —
O(n * depth) total scans plus fanout-length divergent inner loops.

**Solo-block** recursive child (``<<<1, num_children>>>``). Datasets: the
paper's tree dataset1/dataset2 (scaled). Result: single-element height.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_tree

ANNOTATED = r"""
__global__ void th_rec(int* child_ptr, int* child_idx, int* height, int u,
                       int depth) {
    int beg = child_ptr[u];
    int deg = child_ptr[u + 1] - beg;
    int t = threadIdx.x;
    if (t < deg) {
        int c = child_idx[beg + t];
        int cdeg = child_ptr[c + 1] - child_ptr[c];
        #pragma dp consldt(grid) work(c)
        if (cdeg > 0) {
            th_rec<<<1, cdeg>>>(child_ptr, child_idx, height, c, depth + 1);
        } else {
            atomicMax(&height[0], depth + 1);
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void th_flat(int* depths, int* child_ptr, int* child_idx,
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

__global__ void th_reduce(int* depths, int* height, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        atomicMax(&height[0], depths[u]);
    }
}
"""


@register
class TreeHeightsApp(App):
    key = "th"
    label = "TH"
    has_delegation_guard = False
    kind = "tree"
    default_workload = "tree1"

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def host_run(self, device, program, dataset, run):
        t = dataset
        n = t.num_nodes
        child_ptr, child_idx, _ = upload_tree(device, t)
        height = device.from_numpy("height", np.array([1], dtype=np.int32))
        if run.variant == FLAT:
            d0 = np.zeros(n, dtype=np.int32)
            d0[0] = 1
            depths = device.from_numpy("depths", d0)
            changed = device.from_numpy("changed", np.zeros(1, dtype=np.int32))
            grid = blocks_for(n)
            level = 1
            while True:
                changed.data[0] = 0
                program.launch("th_flat", grid, 128, depths, child_ptr,
                               child_idx, changed, level, n)
                level += 1
                if changed.data[0] == 0 or level > n:
                    break
            program.launch("th_reduce", grid, 128, depths, height, n)
        else:
            deg = t.num_children(0)
            if deg > 0:
                program.launch("th_rec", 1, deg, child_ptr, child_idx,
                               height, 0, 1)
        return height.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        return np.array([dataset.height()], dtype=np.int32)
