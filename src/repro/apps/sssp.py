"""Single-Source Shortest Path (SSSP) — Fig. 1(b)'s running example.

Bellman-Ford-style relaxation over CSR (the Harish-Narayanan formulation
the paper cites): each thread owns a node and relaxes its outgoing edges;
nodes whose degree exceeds a threshold delegate the edge scan to a child
kernel (basic-dp) or, after consolidation, to a buffered work item.

Irregular-loop application; **solo-block** child (``<<<1, deg>>>``).
Dataset: CiteSeer-like. Result: integer distance array.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_graph

INF = 2**31 - 1

ANNOTATED = r"""
__global__ void sssp_child(int* row_ptr, int* col_idx, int* weights, int* dist,
                           int* changed, int u) {
    int du = dist[u];
    int beg = row_ptr[u];
    int deg = row_ptr[u + 1] - beg;
    int t = threadIdx.x;
    if (t < deg) {
        int v = col_idx[beg + t];
        int alt = du + weights[beg + t];
        int old = atomicMin(&dist[v], alt);
        if (alt < old) {
            changed[0] = 1;
        }
    }
}

__global__ void sssp_parent(int* row_ptr, int* col_idx, int* weights, int* dist,
                            int* changed, int n, int threshold) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int du = dist[u];
        if (du < INT_MAX) {
            int beg = row_ptr[u];
            int deg = row_ptr[u + 1] - beg;
            #pragma dp consldt(grid) buffer(type: custom) work(u)
            if (deg > threshold) {
                sssp_child<<<1, deg>>>(row_ptr, col_idx, weights, dist, changed, u);
            } else {
                for (int i = 0; i < deg; i++) {
                    int v = col_idx[beg + i];
                    int alt = du + weights[beg + i];
                    int old = atomicMin(&dist[v], alt);
                    if (alt < old) {
                        changed[0] = 1;
                    }
                }
            }
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void sssp_flat(int* row_ptr, int* col_idx, int* weights, int* dist,
                          int* changed, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int du = dist[u];
        if (du < INT_MAX) {
            int beg = row_ptr[u];
            int deg = row_ptr[u + 1] - beg;
            for (int i = 0; i < deg; i++) {
                int v = col_idx[beg + i];
                int alt = du + weights[beg + i];
                int old = atomicMin(&dist[v], alt);
                if (alt < old) {
                    changed[0] = 1;
                }
            }
        }
    }
}
"""


@register
class SSSPApp(App):
    key = "sssp"
    label = "SSSP"
    threshold = 8
    default_workload = "citeseer"
    source_node = 0
    max_iterations = 80

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def host_run(self, device, program, dataset, run):
        g = dataset
        n = g.num_nodes
        row_ptr, col_idx, weights = upload_graph(device, g)
        dist0 = np.full(n, INF, dtype=np.int32)
        dist0[self.source_node] = 0
        dist = device.from_numpy("dist", dist0)
        changed = device.from_numpy("changed", np.zeros(1, dtype=np.int32))
        grid = blocks_for(n)
        for _ in range(self.max_iterations):
            changed.data[0] = 0
            if run.variant == FLAT:
                program.launch("sssp_flat", grid, 128, row_ptr, col_idx,
                               weights, dist, changed, n)
            else:
                program.launch("sssp_parent", grid, 128, row_ptr, col_idx,
                               weights, dist, changed, n, run.threshold)
            if changed.data[0] == 0:
                break
        return dist.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        g = dataset
        n = g.num_nodes
        A = sp.csr_matrix(
            (g.weights.astype(np.float64), g.col_idx, g.row_ptr), shape=(n, n)
        )
        d = csgraph.dijkstra(A, indices=self.source_node)
        out = np.full(n, INF, dtype=np.int64)
        finite = np.isfinite(d)
        out[finite] = d[finite].astype(np.int64)
        return out.astype(np.int32)
