"""Dynamic-parallelism device runtime: consolidation buffers, the custom
global barrier, and launch bookkeeping.

This module implements the *device-side runtime library* that the paper's
generated code links against (§IV.E "Consolidation Buffers", "Global
Barrier Synchronization on GPU"). Generated kernels reach it through
``__dp_*`` intrinsics (INTR events); each intrinsic has functional
semantics plus a cycle/traffic price.

Buffer model
------------
A consolidation buffer is a slot array in *device-heap* global memory
(allocated through the pluggable allocator — this is exactly what Fig. 5
measures) plus an insertion count. Work items are tuples of up to 4
integers (the paper buffers "indexes or pointers"). Scope:

* warp-level:  one buffer per (kernel instance, block, warp)
* block-level: one buffer per (kernel instance, block)
* grid-level:  one buffer per kernel instance

The first thread of the scope to call ``__dp_buf_acquire`` allocates; the
paper sizes buffers with the ``perBufferSize`` prediction and we do the
same, but a push beyond capacity *grows* the buffer (charging a realloc
penalty and counting an ``overflows`` stat) instead of corrupting memory —
a deliberate robustness deviation recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .memory import DeviceArray, GlobalMemory

GRAN_WARP = 0
GRAN_BLOCK = 1
GRAN_GRID = 2

GRAN_NAMES = {GRAN_WARP: "warp", GRAN_BLOCK: "block", GRAN_GRID: "grid"}
GRAN_CODES = {v: k for k, v in GRAN_NAMES.items()}

_ITEM_BYTES = 8  # work-item fields are 64-bit (indexes or pointers)


@dataclass
class ConsolidationBuffer:
    handle: int
    nvars: int
    capacity: int  # slots
    storage: DeviceArray
    #: buffer scope code (GRAN_WARP/GRAN_BLOCK/GRAN_GRID) — drives the
    #: per-scope push-contention price and the per-scope stats
    gran: int = GRAN_BLOCK
    count: int = 0
    overflows: int = 0


@dataclass
class DPStats:
    """Counters the profiler reads after a run."""

    device_launches: int = 0
    host_launches: int = 0
    buffers_acquired: int = 0
    pushes: int = 0
    buffer_grows: int = 0
    barrier_arrivals: int = 0
    max_depth: int = 0
    #: scope name ('warp'/'block'/'grid') -> push count; shows which
    #: granularity's buffers carried the run's delegated work
    pushes_by_scope: dict = field(default_factory=dict)
    #: scope name -> buffers acquired (warp-level acquires many small
    #: buffers, grid-level exactly one per kernel instance)
    buffers_by_scope: dict = field(default_factory=dict)


class DPRuntime:
    """Owns buffers, the grid barrier and launch bookkeeping for one device."""

    def __init__(self, spec, cost, memory: GlobalMemory, memsys, allocator):
        self.spec = spec
        self.cost = cost
        self.memory = memory
        self.memsys = memsys
        self.allocator = allocator
        self.buffers: dict[int, ConsolidationBuffer] = {}
        self._scope_handles: dict[tuple, int] = {}
        self._barrier_counters: dict[int, int] = {}
        self._next_handle = 1
        self.stats = DPStats()
        #: deep-profiling collector (:mod:`repro.perf.collect`); wired by
        #: the Device when profiling is active, else None. Observational
        #: only: it receives the cycle prices computed above, after the
        #: fact, and never alters them.
        self.profiler = None

    # ------------------------------------------------------------ buffers

    def _alloc_storage(self, slots: int, nvars: int, handle: int) -> DeviceArray:
        nbytes = max(1, slots) * nvars * _ITEM_BYTES
        addr = self.allocator.alloc(nbytes)
        return self.memory.bind_heap_array(f"__dp_buf{handle}", "i8",
                                           max(1, slots) * nvars, addr)

    def acquire(self, inst, ctx, gran: int, slots: int, nvars: int) -> tuple[int, int]:
        """Return (handle, cycles). Allocates on first call per scope."""
        if gran == GRAN_WARP:
            key = (inst.uid, ctx.bx, ctx.warp_id)
        elif gran == GRAN_BLOCK:
            key = (inst.uid, ctx.bx)
        elif gran == GRAN_GRID:
            key = (inst.uid,)
        else:
            raise SimulationError(f"bad consolidation granularity code {gran}")
        handle = self._scope_handles.get(key)
        if handle is not None:
            return handle, 2
        handle = self._next_handle
        self._next_handle += 1
        slots = max(1, int(slots))
        nvars = max(1, int(nvars))
        # price includes the heap-lock convoy behind earlier allocations
        cycles = self.allocator.charge_cycles()
        storage = self._alloc_storage(slots, nvars, handle)
        self.buffers[handle] = ConsolidationBuffer(handle, nvars, slots,
                                                   storage, gran=gran)
        self._scope_handles[key] = handle
        self.stats.buffers_acquired += 1
        scope = GRAN_NAMES[gran]
        self.stats.buffers_by_scope[scope] = \
            self.stats.buffers_by_scope.get(scope, 0) + 1
        if self.profiler is not None:
            self.profiler.record_acquire(scope, cycles)
        return handle, cycles

    def _push_conflict(self, gran: int) -> int:
        """Expected insertion-counter contention for one push: the wider
        the buffer scope, the more threads race on the shared counter
        (the buffering half of the granularity trade-off)."""
        if gran == GRAN_WARP:
            return self.cost.push_conflict_warp
        if gran == GRAN_BLOCK:
            return self.cost.push_conflict_block
        return self.cost.push_conflict_grid

    def _buffer(self, handle: int) -> ConsolidationBuffer:
        buf = self.buffers.get(int(handle))
        if buf is None:
            raise SimulationError(f"use of invalid consolidation buffer handle "
                                  f"{handle!r}")
        return buf

    def push(self, handle: int, values: tuple) -> tuple[int, int]:
        """Append one work item; returns (slot, cycles)."""
        buf = self._buffer(handle)
        if len(values) != buf.nvars:
            raise SimulationError(
                f"buffer {handle}: push of {len(values)} fields into a "
                f"{buf.nvars}-field buffer"
            )
        slot = buf.count
        cycles = (self.cost.atomic_cycles * self._push_conflict(buf.gran)
                  + self.cost.buffer_push_cycles)
        if slot >= buf.capacity:
            cycles += self._grow(buf)
        base = slot * buf.nvars
        data = buf.storage.data
        for f, v in enumerate(values):
            data[base + f] = int(v)
        buf.count = slot + 1
        self.stats.pushes += 1
        scope = GRAN_NAMES[buf.gran]
        self.stats.pushes_by_scope[scope] = \
            self.stats.pushes_by_scope.get(scope, 0) + 1
        # price the stores (and the count atomic) through the memory system
        seg_bytes = self.spec.dram_segment_bytes
        addr0 = buf.storage.addr_of(base)
        addr1 = buf.storage.addr_of(base + buf.nvars - 1) + _ITEM_BYTES - 1
        segments = set(range(addr0 // seg_bytes, addr1 // seg_bytes + 1))
        cycles += self.memsys.access_segments(segments)
        if self.profiler is not None:
            self.profiler.record_push(scope, 1, cycles)
        return slot, cycles

    def _grow(self, buf: ConsolidationBuffer) -> int:
        """Double the buffer capacity; returns the cycle penalty."""
        new_capacity = max(4, buf.capacity * 2)
        new_storage = self._alloc_storage(new_capacity, buf.nvars, buf.handle)
        new_storage.data[: buf.count * buf.nvars] = \
            buf.storage.data[: buf.count * buf.nvars]
        try:
            self.allocator.free(buf.storage.base_addr)
        except Exception:
            pass  # pool allocator reclaims wholesale
        buf.storage = new_storage
        buf.capacity = new_capacity
        buf.overflows += 1
        self.stats.buffer_grows += 1
        # copy traffic: count * nvars * 8 bytes read+write
        nbytes = buf.count * buf.nvars * _ITEM_BYTES
        transactions = 2 * max(1, nbytes // self.spec.dram_segment_bytes)
        self.memsys.charge_overhead("buffer-grow", transactions)
        return self.allocator.op_cycles + transactions * 2

    def size(self, handle: int) -> tuple[int, int]:
        buf = self._buffer(handle)
        return buf.count, self.cost.l2_hit_cycles

    def get(self, handle: int, slot: int, fld: int) -> tuple[int, int]:
        buf = self._buffer(handle)
        if not 0 <= slot < buf.count:
            raise SimulationError(
                f"buffer {handle}: read of slot {slot} (count {buf.count})"
            )
        if not 0 <= fld < buf.nvars:
            raise SimulationError(
                f"buffer {handle}: read of field {fld} "
                f"({buf.nvars}-field buffer)"
            )
        value = int(buf.storage.data[slot * buf.nvars + fld])
        seg = buf.storage.addr_of(slot * buf.nvars + fld) // self.spec.dram_segment_bytes
        cycles = self.memsys.access_segments({seg})
        if self.profiler is not None:
            self.profiler.record_pop(1, cycles)
        return value, cycles

    def get_uniform(self, handle, slot, fld, k: int):
        """:meth:`get` for ``k`` reads of one (handle, slot, field) — the
        vectorized engine's operand-uniform buffer read: returns
        ``(value, total_cycles)``, or None to fall back.

        One read and one L2 probe stand for all ``k``: the first probe
        leaves the segment most recently used, and re-probing an LRU
        set's MRU line is a hit that leaves the set's order unchanged —
        so the other ``k - 1`` scalar probes are hits with no effect on
        later L2 state.
        """
        if type(handle) is not int or type(slot) is not int \
                or type(fld) is not int:
            return None
        buf = self.buffers.get(handle)
        if buf is None or not (0 <= slot < buf.count
                               and 0 <= fld < buf.nvars):
            return None  # scalar get raises the error
        pos = slot * buf.nvars + fld
        value = buf.storage.data.item(pos)
        seg = buf.storage.addr_of(pos) // self.spec.dram_segment_bytes
        counters = self.memsys.counters
        hit_cycles = self.cost.l2_hit_cycles
        if self.memsys.l2.probe(seg):
            counters.l2_hits += k
            total = k * hit_cycles
        else:
            counters.l2_misses += 1
            counters.dram_transactions += 1
            counters.l2_hits += k - 1
            total = self.cost.dram_transaction_cycles + (k - 1) * hit_cycles
        if self.profiler is not None:
            self.profiler.record_pop(k, total)
        return value, total

    def reset(self, handle: int) -> tuple[None, int]:
        buf = self._buffer(handle)
        buf.count = 0
        return None, self.cost.l2_hit_cycles

    # ------------------------------------------------------- grid barrier

    def grid_arrive_last(self, inst, ctx) -> tuple[int, int]:
        """Exit-style global barrier (§IV.E): atomically count block
        arrivals; only the *last* block of the grid sees 1."""
        remaining = self._barrier_counters.get(inst.uid)
        if remaining is None:
            remaining = inst.grid
        remaining -= 1
        self._barrier_counters[inst.uid] = remaining
        self.stats.barrier_arrivals += 1
        if remaining < 0:
            raise SimulationError(
                "grid barrier: more arrivals than blocks"
            )
        return (1 if remaining == 0 else 0), self.cost.global_barrier_cycles

    # --------------------------------------------------------- intrinsics

    def handle_intrinsic(self, name: str, args: tuple, inst, ctx):
        if name == "buf_push1" or name == "buf_push2" or name == "buf_push3" \
                or name == "buf_push4":
            return self.push(args[0], args[1:])
        if name == "buf_get":
            return self.get(args[0], args[1], args[2])
        if name == "buf_size":
            return self.size(args[0])
        if name == "buf_acquire":
            return self.acquire(inst, ctx, args[0], args[1], args[2])
        if name == "buf_reset":
            return self.reset(args[0])
        if name == "grid_arrive_last":
            return self.grid_arrive_last(inst, ctx)
        raise SimulationError(f"unknown __dp intrinsic {name!r}")

    # ------------------------------------------------------------- resets

    def reset_run(self) -> None:
        """Clear per-run state (buffers, barrier counters, stats)."""
        self.buffers.clear()
        self._scope_handles.clear()
        self._barrier_counters.clear()
        self.allocator.reset()
        self.stats = DPStats()
