"""Graph Coloring (GC) — Jones-Plassmann priority coloring.

Round ``r``: every uncolored node whose random priority beats all of its
uncolored neighbors' wins and takes color ``r``. The neighbor scan is the
irregular loop; high-degree nodes delegate it to a **solo-block** child kernel.
(The §IV.C multi-block child case is exercised by the transform unit
tests and ``examples/multiblock_consolidation.py``; with many small work
items a grid-cooperative per-item kernel is the wrong tool — and a
pathological interpreter workload.)

This benchmark also exercises the paper's *postwork* machinery: the parent
synchronizes on its children (``cudaDeviceSynchronize``) and then counts
round winners — under grid-level consolidation that postwork moves into a
compiler-generated consolidated postwork kernel launched by the last block.

Dataset: Kronecker-like. Result: the color array (deterministic for a
given priority assignment, so all variants must agree exactly).
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_graph

ANNOTATED = r"""
__global__ void gc_child(int* row_ptr, int* col_idx, int* colors, int* prio,
                         int* winner, int u) {
    int beg = row_ptr[u];
    int deg = row_ptr[u + 1] - beg;
    int pu = prio[u];
    int i = threadIdx.x;
    if (i < deg) {
        int v = col_idx[beg + i];
        if (colors[v] < 0) {
            if (prio[v] > pu || (prio[v] == pu && v > u)) {
                winner[u] = 0;
            }
        }
    }
}

__global__ void gc_parent(int* row_ptr, int* col_idx, int* colors, int* prio,
                          int* winner, int* nwin, int n, int threshold) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (colors[u] < 0) {
            winner[u] = 1;
            int beg = row_ptr[u];
            int deg = row_ptr[u + 1] - beg;
            int pu = prio[u];
            #pragma dp consldt(grid) work(u)
            if (deg > threshold) {
                gc_child<<<1, deg>>>(row_ptr, col_idx, colors, prio, winner, u);
            } else {
                for (int i = 0; i < deg; i++) {
                    int v = col_idx[beg + i];
                    if (colors[v] < 0) {
                        if (prio[v] > pu || (prio[v] == pu && v > u)) {
                            winner[u] = 0;
                        }
                    }
                }
            }
        } else {
            winner[u] = 0;
        }
    }
    cudaDeviceSynchronize();
    if (u < n) {
        if (winner[u] == 1) {
            atomicAdd(&nwin[0], 1);
        }
    }
}

__global__ void gc_commit(int* colors, int* winner, int round, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (winner[u] == 1) {
            colors[u] = round;
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void gc_flat(int* row_ptr, int* col_idx, int* colors, int* prio,
                        int* winner, int* nwin, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (colors[u] < 0) {
            winner[u] = 1;
            int beg = row_ptr[u];
            int deg = row_ptr[u + 1] - beg;
            int pu = prio[u];
            for (int i = 0; i < deg; i++) {
                int v = col_idx[beg + i];
                if (colors[v] < 0) {
                    if (prio[v] > pu || (prio[v] == pu && v > u)) {
                        winner[u] = 0;
                    }
                }
            }
        } else {
            winner[u] = 0;
        }
        if (winner[u] == 1) {
            atomicAdd(&nwin[0], 1);
        }
    }
}

__global__ void gc_commit(int* colors, int* winner, int round, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (winner[u] == 1) {
            colors[u] = round;
        }
    }
}
"""


@register
class GraphColoringApp(App):
    key = "gc"
    label = "GC"
    threshold = 16
    requires_symmetric = True
    default_workload = "kron(seed=41)"
    max_rounds = 100

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def _priorities(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(9)
        return rng.permutation(n).astype(np.int32)

    def host_run(self, device, program, dataset, run):
        g = dataset
        n = g.num_nodes
        row_ptr, col_idx, _ = upload_graph(device, g)
        colors = device.from_numpy("colors", np.full(n, -1, dtype=np.int32))
        prio = device.from_numpy("prio", self._priorities(n))
        winner = device.from_numpy("winner", np.zeros(n, dtype=np.int32))
        nwin = device.from_numpy("nwin", np.zeros(1, dtype=np.int32))
        grid = blocks_for(n)
        for r in range(self.max_rounds):
            nwin.data[0] = 0
            if run.variant == FLAT:
                program.launch("gc_flat", grid, 128, row_ptr, col_idx, colors,
                               prio, winner, nwin, n)
            else:
                program.launch("gc_parent", grid, 128, row_ptr, col_idx,
                               colors, prio, winner, nwin, n, run.threshold)
            program.launch("gc_commit", grid, 128, colors, winner, r, n)
            if int(np.sum(colors.data < 0)) == 0:
                break
        return colors.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        g = dataset
        n = g.num_nodes
        prio = self._priorities(n)
        colors = np.full(n, -1, dtype=np.int32)
        for r in range(self.max_rounds):
            uncolored = np.nonzero(colors < 0)[0]
            if len(uncolored) == 0:
                break
            winners = []
            for u in uncolored:
                nbrs = g.neighbors(u)
                nbrs = nbrs[colors[nbrs] < 0]
                pu = prio[u]
                blocked = np.any(
                    (prio[nbrs] > pu) | ((prio[nbrs] == pu) & (nbrs > u))
                )
                if not blocked:
                    winners.append(u)
            colors[winners] = r
        return colors

    def check(self, result, dataset, reference=None) -> bool:
        g = dataset
        if np.any(result < 0):
            return False
        # proper coloring: no edge joins two same-colored endpoints
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.row_ptr))
        neq = src != g.col_idx
        if np.any(result[src[neq]] == result[g.col_idx[neq]]):
            return False
        # and the exact Jones-Plassmann fixpoint (deterministic)
        ref = self.reference(dataset) if reference is None else reference
        return np.array_equal(result, ref)
