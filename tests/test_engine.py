"""SIMT functional-engine tests: lockstep accounting, barriers, divergence,
device-sync semantics and launch plumbing."""

import numpy as np
import pytest

from repro.backends import CpuDevice
from repro.errors import AllocationError, SimulationError
from repro.sim.device import ENGINES, Device

from tests.helpers import run_kernel


class TestWarpAccounting:
    def test_full_warp_high_efficiency(self):
        src = """__global__ void k(int* out) {
            out[threadIdx.x] = threadIdx.x;
        }"""
        _, m, _ = run_kernel(src, "k", 1, 32, {"out": np.zeros(32, np.int32)})
        assert m.warp_execution_efficiency > 0.9

    def test_partial_warp_low_efficiency(self):
        src = """__global__ void k(int* out) {
            out[threadIdx.x] = threadIdx.x;
        }"""
        _, m, _ = run_kernel(src, "k", 1, 4, {"out": np.zeros(32, np.int32)})
        assert m.warp_execution_efficiency < 0.25

    def test_divergent_loop_trip_counts_reduce_efficiency(self):
        # lane i iterates i times: massive intra-warp imbalance
        src = """__global__ void k(int* out, int* work) {
            int t = threadIdx.x;
            int acc = 0;
            for (int i = 0; i < work[t]; i++) acc += out[i];
            out[t] = acc;
        }"""
        work = np.arange(32, dtype=np.int32) * 8
        _, m, _ = run_kernel(src, "k", 1, 32,
                             {"out": np.zeros(300, np.int32), "work": work})
        assert m.warp_execution_efficiency < 0.6

    def test_balanced_vs_divergent_cycles(self):
        template = """__global__ void k(int* out, int* work) {
            int t = threadIdx.x;
            for (int i = 0; i < work[t]; i++) out[t] += 1;
        }"""
        balanced = np.full(32, 16, dtype=np.int32)
        skewed = np.zeros(32, dtype=np.int32)
        skewed[0] = 16 * 32  # same total work, all in lane 0
        _, m_bal, _ = run_kernel(template, "k", 1, 32,
                                 {"out": np.zeros(32, np.int32), "work": balanced})
        _, m_skew, _ = run_kernel(template, "k", 1, 32,
                                  {"out": np.zeros(32, np.int32), "work": skewed})
        assert m_skew.cycles > 2 * m_bal.cycles


class TestBarriers:
    def test_syncthreads_across_warps(self):
        src = """__global__ void k(int* out, int n) {
            __shared__ int tile[128];
            int t = threadIdx.x;
            tile[t] = t * 2;
            __syncthreads();
            out[t] = tile[n - 1 - t];
        }"""
        _, _, h = run_kernel(src, "k", 1, 128,
                             {"out": np.zeros(128, np.int32)}, scalars=(128,))
        expected = [(127 - t) * 2 for t in range(128)]
        assert list(h["out"].data) == expected

    def test_barrier_with_early_returned_threads(self):
        src = """__global__ void k(int* out, int n) {
            int t = threadIdx.x;
            if (t >= n) return;
            __syncthreads();
            out[t] = 1;
        }"""
        _, _, h = run_kernel(src, "k", 1, 64,
                             {"out": np.zeros(64, np.int32)}, scalars=(10,))
        assert h["out"].data[:10].sum() == 10

    def test_double_barrier(self):
        src = """__global__ void k(int* out) {
            __shared__ int s[2];
            int t = threadIdx.x;
            if (t == 0) s[0] = 5;
            __syncthreads();
            if (t == 1) s[1] = s[0] * 2;
            __syncthreads();
            out[t] = s[1];
        }"""
        _, _, h = run_kernel(src, "k", 1, 64, {"out": np.zeros(64, np.int32)})
        assert all(v == 10 for v in h["out"].data)


class TestDynamicParallelism:
    CHILD_PARENT = """
    __global__ void child(int* out, int base) {
        out[base + threadIdx.x] = 100 + threadIdx.x;
    }
    __global__ void parent(int* out, int n) {
        int t = threadIdx.x;
        if (t == 0) {
            child<<<1, n>>>(out, 8);
        }
    }
    """

    def test_child_effects_visible_after_sync(self):
        _, m, h = run_kernel(self.CHILD_PARENT, "parent", 1, 4,
                             {"out": np.zeros(16, np.int32)}, scalars=(4,))
        assert list(h["out"].data[8:12]) == [100, 101, 102, 103]
        assert m.device_launches == 1
        assert m.kernel_instances == 2

    def test_launch_depth_limit(self):
        src = """__global__ void r(int* out, int d) {
            if (threadIdx.x == 0) {
                out[0] = d;
                r<<<1, 1>>>(out, d + 1);
            }
        }"""
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(SimulationError):
            prog.launch("r", 1, 1, out, 0)

    def test_bounded_recursion_ok(self):
        src = """__global__ void r(int* out, int d) {
            if (threadIdx.x == 0 && d < 10) {
                out[d] = d;
                r<<<1, 1>>>(out, d + 1);
            }
        }"""
        _, m, h = run_kernel(src, "r", 1, 1,
                             {"out": np.zeros(16, np.int32)}, scalars=(0,))
        assert list(h["out"].data[:10]) == list(range(10))
        assert m.device_launches == 10

    def test_device_sync_joins_children(self):
        src = """
        __global__ void child(int* out) { out[0] = 41; }
        __global__ void parent(int* out) {
            if (threadIdx.x == 0) {
                child<<<1, 1>>>(out);
                cudaDeviceSynchronize();
                out[1] = out[0] + 1;
            }
        }
        """
        _, m, h = run_kernel(src, "parent", 1, 1, {"out": np.zeros(4, np.int32)})
        assert h["out"].data[1] == 42
        assert m.parent_swaps >= 1  # the block was swapped at the sync

    def test_launch_in_loop(self):
        src = """
        __global__ void child(int* out, int i) { atomicAdd(&out[i], 1); }
        __global__ void parent(int* out, int n) {
            if (threadIdx.x == 0) {
                for (int i = 0; i < n; i++) {
                    child<<<1, 1>>>(out, i);
                }
            }
        }
        """
        _, m, h = run_kernel(src, "parent", 1, 1,
                             {"out": np.zeros(8, np.int32)}, scalars=(8,))
        assert list(h["out"].data) == [1] * 8
        assert m.device_launches == 8

    def test_fifo_sibling_order(self):
        # children run in launch order (FIFO across the forest)
        src = """
        __global__ void child(int* out, int i) {
            out[i] = atomicAdd(&out[7], 1);
        }
        __global__ void parent(int* out) {
            if (threadIdx.x == 0) {
                child<<<1, 1>>>(out, 0);
                child<<<1, 1>>>(out, 1);
                child<<<1, 1>>>(out, 2);
            }
        }
        """
        _, _, h = run_kernel(src, "parent", 1, 1, {"out": np.zeros(8, np.int32)})
        assert list(h["out"].data[:3]) == [0, 1, 2]

    def test_empty_launch_config_rejected(self):
        src = """
        __global__ void child(int* out) { out[0] = 1; }
        __global__ void parent(int* out, int n) {
            if (threadIdx.x == 0) { child<<<1, n>>>(out); }
        }
        """
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(SimulationError):
            prog.launch("parent", 1, 1, out, 0)


class TestDeterminism:
    def test_runs_are_reproducible(self):
        src = """__global__ void k(int* out) {
            atomicAdd(&out[threadIdx.x % 4], threadIdx.x);
        }"""
        results = []
        cycles = []
        for _ in range(2):
            _, m, h = run_kernel(src, "k", 2, 64, {"out": np.zeros(4, np.int32)})
            results.append(list(h["out"].data))
            cycles.append(m.cycles)
        assert results[0] == results[1]
        assert cycles[0] == cycles[1]


class TestErrorsNameTheKernel:
    """An error raised while a kernel's events are applied leaves the
    engine prefixed ``kernel <name>: `` exactly once, naming the
    innermost failing kernel, and keeps its type."""

    #: a child that stores past the end of ``out`` under a parent that
    #: joins it with cudaDeviceSynchronize (``sync``) or leaves it to
    #: the FIFO drain
    _OOB_SRC = """
    __global__ void child(int* out) { out[threadIdx.x + 8] = 1; }
    __global__ void parent(int* out, int sync) {
        if (threadIdx.x == 0) {
            child<<<1, 1>>>(out);
            if (sync) { cudaDeviceSynchronize(); }
        }
    }
    """

    @pytest.mark.parametrize("executor", sorted(ENGINES) + ["cpu"])
    @pytest.mark.parametrize("sync", [1, 0], ids=["devsync", "drained"])
    def test_failing_child_is_named_once(self, executor, sync):
        dev = CpuDevice() if executor == "cpu" else Device(engine=executor)
        prog = dev.load(self._OOB_SRC)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(SimulationError) as info:
            prog.launch("parent", 1, 1, out, sync)
        message = str(info.value)
        assert message.startswith("kernel child: ")
        assert message.count("kernel ") == 1
        assert "parent" not in message
        assert info.value.kernel == "child"

    #: the Fig. 1 DP template, grid-consolidated with one-slot buffers:
    #: the second push into the parent's grid buffer must grow it, and a
    #: 16-byte device heap cannot
    _GROW_SRC = """
    __global__ void child(int* buf, int* out, int u, int n) {
        out[u] = buf[u % 16] + u;
    }
    __global__ void parent(int* buf, int* out, int n) {
        int u = blockIdx.x * blockDim.x + threadIdx.x;
        if (u < n) {
            int w = buf[u % 16];
            #pragma dp consldt(grid) buffer(type: custom, perBufferSize: 1) work(u)
            if (w > 8) {
                child<<<1, 1>>>(buf, out, u, n);
            } else {
                out[u] = 0 - w;
            }
        }
    }
    """

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_heap_exhaustion_during_buffer_growth_names_the_kernel(self,
                                                                   engine):
        from repro.compiler import consolidate_source

        src = consolidate_source(self._GROW_SRC).source
        dev = Device(heap_bytes=16, engine=engine)
        prog = dev.load(src)
        rng = np.random.default_rng(23)
        buf = dev.from_numpy("buf", rng.integers(0, 32, 64).astype(np.int32))
        out = dev.from_numpy("out", np.zeros(64, np.int32))
        with pytest.raises(AllocationError) as info:
            prog.launch("parent", 2, 32, buf, out, 64)
        message = str(info.value)
        assert message.startswith("kernel parent: pre-allocated pool "
                                  "exhausted (32 bytes requested, 0 left)")
        assert message.count("kernel ") == 1
