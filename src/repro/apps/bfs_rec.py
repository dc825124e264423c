"""Recursive Breadth-First Search (BFS-Rec) — parallel recursion on a graph.

The natural recursive port the paper describes (§II.B): a kernel runs one
thread per neighbor of a claimed node; a thread that claims an unvisited
neighbor (atomicCAS on its level) recursively launches a kernel over that
neighbor's own adjacency list. Parent and child are the *same* kernel, so
both transformation phases apply to it sequentially (§IV.C); with
grid-level consolidation the generated code is exactly a level-synchronous
frontier BFS — the equivalence the paper points out versus [3].

**Solo-block** recursive child (``<<<1, deg>>>``). Dataset: Kronecker-like
(symmetric). Result: level array.

Verification: the claim order is racy on real hardware exactly as it is
under our deterministic schedule, so basic-dp may assign non-minimal
levels. The check accepts any *valid parent levelling* (every visited
non-root has a neighbor one level shallower, visited set equals the
reachable set); the flat and grid-consolidated variants additionally
produce true BFS distances.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_graph

ANNOTATED = r"""
__global__ void bfs_rec(int* row_ptr, int* col_idx, int* levels, int u,
                        int depth) {
    int beg = row_ptr[u];
    int deg = row_ptr[u + 1] - beg;
    int t = threadIdx.x;
    if (t < deg) {
        int v = col_idx[beg + t];
        int old = atomicCAS(&levels[v], -1, depth);
        if (old == -1) {
            int cdeg = row_ptr[v + 1] - row_ptr[v];
            #pragma dp consldt(grid) work(v)
            if (cdeg > 0) {
                bfs_rec<<<1, cdeg>>>(row_ptr, col_idx, levels, v, depth + 1);
            }
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void bfs_flat(int* row_ptr, int* col_idx, int* levels, int* changed,
                         int level, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (levels[u] == level) {
            int beg = row_ptr[u];
            int deg = row_ptr[u + 1] - beg;
            for (int i = 0; i < deg; i++) {
                int v = col_idx[beg + i];
                int old = atomicCAS(&levels[v], -1, level + 1);
                if (old == -1) {
                    changed[0] = 1;
                }
            }
        }
    }
}
"""


@register
class BFSRecApp(App):
    key = "bfs_rec"
    label = "BFS-Rec"
    has_delegation_guard = False
    requires_symmetric = True
    requires_shallow = True
    default_workload = "kron(seed=51)"

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def _root(self, g) -> int:
        return int(np.argmax(g.degrees))

    def host_run(self, device, program, dataset, run):
        g = dataset
        n = g.num_nodes
        row_ptr, col_idx, _ = upload_graph(device, g)
        root = self._root(g)
        lv0 = np.full(n, -1, dtype=np.int32)
        lv0[root] = 0
        levels = device.from_numpy("levels", lv0)
        if run.variant == FLAT:
            changed = device.from_numpy("changed", np.zeros(1, dtype=np.int32))
            grid = blocks_for(n)
            level = 0
            while True:
                changed.data[0] = 0
                program.launch("bfs_flat", grid, 128, row_ptr, col_idx,
                               levels, changed, level, n)
                level += 1
                if changed.data[0] == 0 or level > n:
                    break
        else:
            deg = g.out_degree(root)
            program.launch("bfs_rec", 1, max(1, deg), row_ptr, col_idx,
                           levels, root, 1)
        return levels.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        """True BFS distances (used by the validity check)."""
        g = dataset
        n = g.num_nodes
        root = self._root(g)
        levels = np.full(n, -1, dtype=np.int32)
        levels[root] = 0
        frontier = [root]
        d = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if levels[v] < 0:
                        levels[v] = d + 1
                        nxt.append(int(v))
            frontier = nxt
            d += 1
        return levels

    def check(self, result, dataset, reference=None) -> bool:
        g = dataset
        ref = self.reference(dataset) if reference is None else reference
        # same visited set as the reachable set
        if not np.array_equal(result >= 0, ref >= 0):
            return False
        root = self._root(g)
        if result[root] != 0:
            return False
        # parent-level property: every visited non-root node has a neighbor
        # exactly one level shallower (graph is symmetric)
        for v in np.nonzero(result > 0)[0]:
            nbrs = g.neighbors(v)
            if not np.any(result[nbrs] == result[v] - 1):
                return False
        # levels can never beat true BFS distances
        mask = ref >= 0
        return bool(np.all(result[mask] >= ref[mask]))
