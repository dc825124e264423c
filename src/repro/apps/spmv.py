"""Sparse Matrix-Vector multiplication (SpMV), CSR storage.

``y = A @ x`` with one thread per row; rows longer than the threshold
delegate the dot product to a child kernel that accumulates into ``y[r]``
with floating-point atomics (the Greathouse-Daga CSR formulation the paper
cites uses the same long-row splitting idea).

Irregular-loop application; **solo-block** child. Dataset: CiteSeer-like
used as a sparse matrix. Result: float32 vector.
"""

from __future__ import annotations

import numpy as np

from .common import App, FLAT, register
from .util import blocks_for, upload_graph

ANNOTATED = r"""
__global__ void spmv_child(int* row_ptr, int* col_idx, float* values, float* x,
                           float* y, int r) {
    int beg = row_ptr[r];
    int len = row_ptr[r + 1] - beg;
    int t = threadIdx.x;
    if (t < len) {
        float prod = values[beg + t] * x[col_idx[beg + t]];
        atomicAdd(&y[r], prod);
    }
}

__global__ void spmv_parent(int* row_ptr, int* col_idx, float* values, float* x,
                            float* y, int n, int threshold) {
    int r = blockIdx.x * blockDim.x + threadIdx.x;
    if (r < n) {
        int beg = row_ptr[r];
        int len = row_ptr[r + 1] - beg;
        #pragma dp consldt(grid) buffer(type: custom) work(r)
        if (len > threshold) {
            spmv_child<<<1, len>>>(row_ptr, col_idx, values, x, y, r);
        } else {
            float acc = 0.0f;
            for (int i = 0; i < len; i++) {
                acc = acc + values[beg + i] * x[col_idx[beg + i]];
            }
            y[r] = y[r] + acc;
        }
    }
}
"""

FLAT_SRC = r"""
__global__ void spmv_flat(int* row_ptr, int* col_idx, float* values, float* x,
                          float* y, int n) {
    int r = blockIdx.x * blockDim.x + threadIdx.x;
    if (r < n) {
        int beg = row_ptr[r];
        int len = row_ptr[r + 1] - beg;
        float acc = 0.0f;
        for (int i = 0; i < len; i++) {
            acc = acc + values[beg + i] * x[col_idx[beg + i]];
        }
        y[r] = acc;
    }
}
"""


@register
class SpMVApp(App):
    key = "spmv"
    label = "SpMV"
    threshold = 8
    default_workload = "citeseer(seed=21)"

    def annotated_source(self) -> str:
        return ANNOTATED

    def flat_source(self) -> str:
        return FLAT_SRC

    def _x(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(5)
        return (rng.random(n, dtype=np.float32) * 2.0 - 1.0).astype(np.float32)

    def host_run(self, device, program, dataset, run):
        g = dataset
        n = g.num_nodes
        row_ptr, col_idx, values = upload_graph(device, g, weights_as_float=True)
        x = device.from_numpy("x", self._x(n))
        y = device.from_numpy("y", np.zeros(n, dtype=np.float32))
        grid = blocks_for(n)
        if run.variant == FLAT:
            program.launch("spmv_flat", grid, 128, row_ptr, col_idx, values,
                           x, y, n)
        else:
            program.launch("spmv_parent", grid, 128, row_ptr, col_idx, values,
                           x, y, n, run.threshold)
        return y.to_numpy()

    def reference(self, dataset) -> np.ndarray:
        import scipy.sparse as sp

        g = dataset
        n = g.num_nodes
        A = sp.csr_matrix(
            (g.weights.astype(np.float32), g.col_idx, g.row_ptr), shape=(n, n)
        )
        return (A @ self._x(n)).astype(np.float32)

    def check(self, result, dataset, reference=None) -> bool:
        ref = self.reference(dataset) if reference is None else reference
        # atomic accumulation order differs between variants; float32
        # addition is not associative, so compare with a tolerance
        return np.allclose(result, ref, rtol=1e-4, atol=1e-4)
