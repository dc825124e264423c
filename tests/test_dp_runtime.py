"""Consolidation-buffer runtime and global-barrier tests (via __dp_*
intrinsics exercised from MiniCUDA kernels)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.device import ENGINES, Device
from repro.sim.dp import GRAN_BLOCK

from tests.helpers import run_kernel


class TestBuffers:
    def test_push_and_drain_roundtrip(self):
        src = """
        __global__ void producer(int* out, int n) {
            int t = threadIdx.x;
            int h = __dp_buf_acquire(1, 64, 1);
            if (t < n) {
                __dp_buf_push1(h, t * 7);
            }
            __syncthreads();
            if (t == 0) {
                int count = __dp_buf_size(h);
                out[0] = count;
                for (int i = 0; i < count; i++) {
                    out[1 + i] = __dp_buf_get(h, i, 0);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "producer", 1, 32,
                             {"out": np.zeros(40, np.int32)}, scalars=(5,))
        assert h["out"].data[0] == 5
        assert sorted(h["out"].data[1:6]) == [0, 7, 14, 21, 28]

    def test_multi_field_push(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(1, 16, 3);
            __dp_buf_push3(h, 10, 20, 30);
            out[0] = __dp_buf_get(h, 0, 0);
            out[1] = __dp_buf_get(h, 0, 1);
            out[2] = __dp_buf_get(h, 0, 2);
        }
        """
        _, _, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(4, np.int32)})
        assert list(h["out"].data[:3]) == [10, 20, 30]

    def test_scope_warp_vs_block(self):
        # warp-scope: two warps get different buffers; block-scope: shared
        src = """
        __global__ void k(int* out, int gran) {
            int t = threadIdx.x;
            int h = __dp_buf_acquire(gran, 128, 1);
            __dp_buf_push1(h, t);
            __syncthreads();
            if (t == 0) { out[0] = __dp_buf_size(h); }
        }
        """
        _, _, h = run_kernel(src, "k", 1, 64, {"out": np.zeros(2, np.int32)},
                             scalars=(0,))
        assert h["out"].data[0] == 32  # warp scope: only warp 0's buffer
        _, _, h = run_kernel(src, "k", 1, 64, {"out": np.zeros(2, np.int32)},
                             scalars=(1,))
        assert h["out"].data[0] == 64  # block scope: all threads

    def test_grid_scope_spans_blocks(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(2, 512, 1);
            __dp_buf_push1(h, 1);
            __syncthreads();
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    out[0] = __dp_buf_size(h);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 4, 32, {"out": np.zeros(2, np.int32)})
        assert h["out"].data[0] == 128

    def test_buffer_grows_on_overflow(self):
        src = """
        __global__ void k(int* out, int n) {
            int h = __dp_buf_acquire(1, 2, 1);
            for (int i = 0; i < n; i++) {
                __dp_buf_push1(h, i);
            }
            out[0] = __dp_buf_size(h);
            out[1] = __dp_buf_get(h, n - 1, 0);
        }
        """
        _, m, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(2, np.int32)},
                             scalars=(40,))
        assert h["out"].data[0] == 40
        assert h["out"].data[1] == 39
        assert m.buffer_grows >= 1

    def test_buffer_reset(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(1, 8, 1);
            __dp_buf_push1(h, 5);
            __dp_buf_reset(h);
            out[0] = __dp_buf_size(h);
        }
        """
        _, _, h = run_kernel(src, "k", 1, 1, {"out": np.zeros(1, np.int32)})
        assert h["out"].data[0] == 0

    def test_invalid_handle_raises(self):
        src = """__global__ void k(int* out) { out[0] = __dp_buf_size(12345); }"""
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(1, np.int32))
        with pytest.raises(SimulationError):
            prog.launch("k", 1, 1, out)

    #: lanes from ``first`` on read (slot, fld); the others read (1, 1)
    _READ_SRC = """__global__ void k(int* out, int slot, int fld, int first) {
        int t = threadIdx.x;
        int h = __dp_buf_acquire(1, 8, 2);
        if (t == 0) {
            __dp_buf_push2(h, 11, 22);
            __dp_buf_push2(h, 33, 44);
        }
        __syncthreads();
        out[t] = __dp_buf_get(h, t >= first ? slot : 1, t >= first ? fld : 1);
    }"""

    #: (block size, first lane reading the tested operands): one lane
    #: runs sequentially; 32 lanes on one (slot, field) are an
    #: operand-uniform round; only the last of 32 makes the round's
    #: operands differ, which leaves it to the per-event path
    _READERS = (
        pytest.param(1, 0, id="1-lane"),
        pytest.param(32, 0, id="32-lanes"),
        pytest.param(32, 31, id="32-lanes-last-only"),
    )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("lanes, first", _READERS)
    @pytest.mark.parametrize("slot, fld, message", (
        pytest.param(-1, 0, "slot -1", id="slot-1"),
        pytest.param(2, 0, "slot 2", id="slot2"),
        pytest.param(0, -2, "field -2", id="field-2"),
        pytest.param(0, -1, "field -1", id="field-1"),
        pytest.param(0, 2, "field 2", id="field2"),
    ))
    def test_out_of_range_get_raises(self, engine, lanes, first, slot, fld,
                                     message):
        # the vectorized engine's uniform read must leave the error to
        # the scalar read, on every engine the same
        dev = Device(engine=engine)
        prog = dev.load(self._READ_SRC)
        out = dev.from_numpy("out", np.zeros(lanes, np.int32))
        with pytest.raises(SimulationError, match=f"read of {message} "):
            prog.launch("k", 1, lanes, out, slot, fld, first)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("lanes, first", _READERS)
    def test_in_range_get_reads_its_field(self, engine, lanes, first):
        dev = Device(engine=engine)
        prog = dev.load(self._READ_SRC)
        out = dev.from_numpy("out", np.zeros(lanes, np.int32))
        prog.launch("k", 1, lanes, out, 0, 1, first)
        dev.synchronize()
        assert list(out.data) == [44] * first + [22] * (lanes - first)

    def test_allocator_charged_per_buffer(self):
        src = """
        __global__ void k(int* out) {
            int h = __dp_buf_acquire(0, 32, 1);
            __dp_buf_push1(h, threadIdx.x);
        }
        """
        dev = Device(allocator="default")
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(1, np.int32))
        prog.launch("k", 1, 128, out)  # 4 warps -> 4 warp-scope buffers
        m = dev.synchronize()
        assert m.allocator_allocs == 4
        assert m.allocator_kind == "default"

    def test_fresh_buffers_per_kernel_instance(self):
        src = """
        __global__ void k(int* out, int slot) {
            int h = __dp_buf_acquire(1, 8, 1);
            __dp_buf_push1(h, 1);
            out[slot] = __dp_buf_size(h);
        }
        """
        dev = Device()
        prog = dev.load(src)
        out = dev.from_numpy("out", np.zeros(2, np.int32))
        prog.launch("k", 1, 1, out, 0)
        prog.launch("k", 1, 1, out, 1)
        dev.synchronize()
        assert list(out.data) == [1, 1]  # second launch got a new buffer


class TestGridBarrier:
    def test_exactly_one_last_block(self):
        src = """
        __global__ void k(int* out) {
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    atomicAdd(&out[0], 1);
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 8, 32, {"out": np.zeros(1, np.int32)})
        assert h["out"].data[0] == 1

    def test_last_block_sees_all_prior_work(self):
        src = """
        __global__ void k(int* out, int n) {
            int u = blockIdx.x * blockDim.x + threadIdx.x;
            atomicAdd(&out[1], 1);
            __syncthreads();
            if (threadIdx.x == 0) {
                if (__dp_grid_arrive_last()) {
                    out[0] = out[1];
                }
            }
        }
        """
        _, _, h = run_kernel(src, "k", 4, 16, {"out": np.zeros(2, np.int32)},
                             scalars=(64,))
        assert h["out"].data[0] == 64


class _PopLog:
    """Profiler stand-in recording what the runtime reports for reads."""

    def __init__(self):
        self.pops = 0
        self.pop_cycles = 0

    def record_push(self, scope, n, cycles):
        pass

    def record_pop(self, n, cycles):
        self.pops += n
        self.pop_cycles += cycles


class TestUniformRead:
    """``DPRuntime.get_uniform`` prices k reads of one (slot, field) with
    one probe; it must leave everything as k scalar ``get`` calls do."""

    K = 32
    SLOT, FLD = 2, 1

    def _device(self, l2):
        dev = Device()
        dp = dev.dp
        handle, _ = dp.acquire(SimpleNamespace(uid=1),
                               SimpleNamespace(bx=0, warp_id=0),
                               GRAN_BLOCK, 8, 2)
        for i in range(4):
            dp.push(handle, (10 * i, 10 * i + 1))
        dev.memsys.reset()  # cold: the pushes' lines are gone
        cache = dev.memsys.l2
        storage = dp.buffers[handle].storage
        seg = storage.addr_of(self.SLOT * 2 + self.FLD) \
            // dev.spec.dram_segment_bytes
        # fill the read's set with other lines; "warm-hit" puts the read's
        # line in the middle of the LRU order, "warm-miss" makes the
        # read evict the oldest
        others = [seg + j * cache.num_sets for j in range(1, cache.ways + 1)]
        if l2 == "warm-hit":
            others[cache.ways // 2] = seg
        if l2 != "cold":
            for line in others:
                cache.probe(line)
        dp.profiler = _PopLog()
        return dev, handle

    @staticmethod
    def _state(dev):
        ctr = dev.memsys.counters
        return ((ctr.l2_hits, ctr.l2_misses, ctr.dram_transactions),
                [list(s) for s in dev.memsys.l2._sets],
                (dev.dp.profiler.pops, dev.dp.profiler.pop_cycles))

    @pytest.mark.parametrize("l2", ("cold", "warm-hit", "warm-miss"))
    def test_matches_k_scalar_reads(self, l2):
        uni, handle = self._device(l2)
        value, cycles = uni.dp.get_uniform(handle, self.SLOT, self.FLD,
                                           self.K)
        ref, handle = self._device(l2)
        reads = [ref.dp.get(handle, self.SLOT, self.FLD)
                 for _ in range(self.K)]
        assert [value] * self.K == [v for v, _ in reads] == [21] * self.K
        assert cycles == sum(c for _, c in reads)
        assert self._state(uni) == self._state(ref)

    @pytest.mark.parametrize("slot, fld", ((4, 0), (-1, 0), (0, 2),
                                           (0, -1), (True, 0), (0, 1.0)))
    def test_declines_what_the_scalar_read_must_judge(self, slot, fld):
        dev, handle = self._device("cold")
        assert dev.dp.get_uniform(handle, slot, fld, self.K) is None
        assert self._state(dev)[0] == (0, 0, 0)
