"""PageRank (PR) with the standard power-iteration formulation.

``rank'[u] = (1-d)/n + d * sum(rank[v] / outdeg[v] for v -> u)`` computed
over the *incoming-edge* CSR; nodes with many in-neighbors delegate the
gather to a child kernel that accumulates with float atomics (the
Duong et al. GPU PageRank the paper cites parallelizes the same gather).

Irregular-loop application; **solo-block** child. Dataset: CiteSeer-like.
Result: float32 rank vector after a fixed number of iterations.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, reverse_csr

DAMPING = 0.85
ITERATIONS = 4

ANNOTATED = r"""
__global__ void pr_child(int* in_ptr, int* in_idx, float* contrib,
                         float* newrank, int u) {
    int beg = in_ptr[u];
    int len = in_ptr[u + 1] - beg;
    int t = threadIdx.x;
    if (t < len) {
        atomicAdd(&newrank[u], contrib[in_idx[beg + t]]);
    }
}

__global__ void pr_parent(int* in_ptr, int* in_idx, float* contrib,
                          float* newrank, int n, int threshold) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int beg = in_ptr[u];
        int len = in_ptr[u + 1] - beg;
        #pragma dp consldt(grid) buffer(type: custom) work(u)
        if (len > threshold) {
            pr_child<<<1, len>>>(in_ptr, in_idx, contrib, newrank, u);
        } else {
            float acc = 0.0f;
            for (int i = 0; i < len; i++) {
                acc = acc + contrib[in_idx[beg + i]];
            }
            newrank[u] = newrank[u] + acc;
        }
    }
}

__global__ void pr_contrib(float* rank, int* outdeg, float* contrib,
                           float damping, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (outdeg[u] > 0) {
            contrib[u] = damping * rank[u] / (float)outdeg[u];
        } else {
            contrib[u] = 0.0f;
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void pr_flat(int* in_ptr, int* in_idx, float* contrib,
                        float* newrank, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int beg = in_ptr[u];
        int len = in_ptr[u + 1] - beg;
        float acc = 0.0f;
        for (int i = 0; i < len; i++) {
            acc = acc + contrib[in_idx[beg + i]];
        }
        newrank[u] = newrank[u] + acc;
    }
}

__global__ void pr_contrib(float* rank, int* outdeg, float* contrib,
                           float damping, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        if (outdeg[u] > 0) {
            contrib[u] = damping * rank[u] / (float)outdeg[u];
        } else {
            contrib[u] = 0.0f;
        }
    }
}
"""


@register
class PageRankApp(App):
    key = "pagerank"
    label = "PR"
    threshold = 8
    default_workload = "citeseer(seed=31)"

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def host_run(self, device, program, dataset, run):
        g = dataset
        rg = reverse_csr(g)
        n = g.num_nodes
        in_ptr = device.from_numpy("in_ptr", rg.row_ptr.astype(np.int32))
        in_idx = device.from_numpy("in_idx", rg.col_idx.astype(np.int32))
        outdeg = device.from_numpy("outdeg", g.degrees.astype(np.int32))
        rank = device.from_numpy(
            "rank", np.full(n, 1.0 / n, dtype=np.float32))
        contrib = device.from_numpy("contrib", np.zeros(n, dtype=np.float32))
        newrank = device.from_numpy("newrank", np.zeros(n, dtype=np.float32))
        grid = blocks_for(n)
        base = (1.0 - DAMPING) / n
        for _ in range(ITERATIONS):
            program.launch("pr_contrib", grid, 128, rank, outdeg, contrib,
                           DAMPING, n)
            newrank.data[:] = base  # host-side memset, as CUDA codes memset
            if run.variant == FLAT:
                program.launch("pr_flat", grid, 128, in_ptr, in_idx, contrib,
                               newrank, n)
            else:
                program.launch("pr_parent", grid, 128, in_ptr, in_idx, contrib,
                               newrank, n, run.threshold)
            rank.data[:] = newrank.data  # pointer-swap equivalent
        return rank.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        g = dataset
        rg = reverse_csr(g)
        n = g.num_nodes
        outdeg = g.degrees.astype(np.float32)
        rank = np.full(n, 1.0 / n, dtype=np.float32)
        for _ in range(ITERATIONS):
            contrib = np.where(outdeg > 0, DAMPING * rank / np.maximum(outdeg, 1),
                               0.0).astype(np.float32)
            newrank = np.full(n, (1.0 - DAMPING) / n, dtype=np.float32)
            for u in range(n):
                lo, hi = rg.row_ptr[u], rg.row_ptr[u + 1]
                newrank[u] += contrib[rg.col_idx[lo:hi]].sum(dtype=np.float32)
            rank = newrank
        return rank

    def check(self, result, dataset, reference=None) -> bool:
        ref = self.reference(dataset) if reference is None else reference
        return np.allclose(result, ref, rtol=1e-3, atol=1e-6)
