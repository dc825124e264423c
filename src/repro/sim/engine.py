"""SIMT functional engine.

Executes kernel grids block-by-block with warp-lockstep semantics:

* threads of a warp advance in *rounds*; each round steps every live,
  unblocked lane by one event. Lanes that finished (or wait at a barrier)
  are inactive — the per-round active-lane count yields the paper's *warp
  execution efficiency* metric (Fig. 8).
* each round costs one warp-step plus memory stalls: the round's global
  accesses are coalesced into 128-byte segments and priced through the L2
  model (Fig. 10's DRAM transactions fall out of this path).
* ``__syncthreads`` blocks a warp until every warp of the block arrives.
* DP launches are recorded into the block's trace (with cycle offsets) and
  executed functionally after the block completes or at an explicit
  ``cudaDeviceSynchronize`` — the discrete-event timing model
  (:mod:`repro.sim.timing`) later replays the trace against the SMX
  scheduler for makespan and occupancy.

Blocks of one grid run sequentially (functional determinism); this is
sound for the benchmark codes, whose cross-block interactions are
monotonic atomics or level-synchronized phases (see DESIGN.md §7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import SimulationError
from ..telemetry import span
from .events import ATOM, DEVSYNC, INTR, LAUNCH, LD, ST, SYNC, WSYNC, ThreadCtx
from .memory import DeviceArray

# thread states
_RUNNING = 0
_AT_BARRIER = 1
_DONE = 2
_AT_WARP_BARRIER = 3


@dataclass
class LaunchRecord:
    """A DP child launch observed in a parent block."""

    segment: int
    offset_cycles: int
    child: "KernelInstance"


@dataclass
class BlockTrace:
    """Timing-relevant trace of one executed block."""

    block_idx: int
    num_threads: int
    num_warps: int
    #: cycles of each execution segment (segments are separated by
    #: cudaDeviceSynchronize points, where the parent may be swapped out)
    segments: list[int] = field(default_factory=list)
    launches: list[LaunchRecord] = field(default_factory=list)
    #: total warp-rounds and active-lane-rounds for warp-efficiency
    warp_steps: int = 0
    active_lane_steps: int = 0
    #: warp-cycles spent waiting at __syncthreads for the block's slowest
    #: warp (summed over releases). This is the *load-imbalance* price of
    #: block-wide aggregation barriers: block- and grid-level
    #: consolidation insert a __syncthreads before the designated launch,
    #: so an uneven push workload shows up here (DESIGN.md §10). Measured
    #: only — the lockstep cycle accounting is unchanged.
    barrier_stall_cycles: int = 0

    @property
    def cycles(self) -> int:
        return sum(self.segments)


@dataclass
class KernelInstance:
    """One kernel grid: a host launch or a DP child launch."""

    uid: int
    name: str
    grid: int
    block_dim: int
    args: tuple
    depth: int
    parent_uid: Optional[int] = None
    from_device: bool = False
    blocks: list[BlockTrace] = field(default_factory=list)
    children: list["KernelInstance"] = field(default_factory=list)

    @property
    def total_threads(self) -> int:
        return self.grid * self.block_dim

    def subtree(self):
        yield self
        for child in self.children:
            yield from child.subtree()


class _Warp:
    __slots__ = ("threads", "states", "pending", "cycles", "steps",
                 "active_steps", "ctxs")

    def __init__(self, threads, ctxs):
        self.threads = threads          # list of generators
        self.ctxs = ctxs                # parallel list of ThreadCtx
        self.states = [_RUNNING] * len(threads)
        self.pending = [None] * len(threads)
        self.cycles = 0
        self.steps = 0
        self.active_steps = 0


class FunctionalEngine:
    """Runs kernel instances functionally and produces traces.

    Collaborators:

    ``kernels``          name -> compiled generator function
    ``memory_system``    L2/DRAM accounting (:class:`MemorySystem`)
    ``dp``               the device's :class:`~repro.sim.dp.DPRuntime`,
                         which answers ``__dp_*`` intrinsic events
    ``on_launch``        callable(parent_instance, name, grid, block, args)
                         -> KernelInstance (performs depth/config checks)

    This is the scalar reference: its :meth:`_apply_batched` hook takes
    no round, so every event goes through the per-event handling that
    the operand-uniform fast path of
    :class:`~repro.sim.engine_vec.VectorizedEngine` is held to.
    """

    def __init__(self, spec, cost, memory_system, kernels: dict, dp,
                 on_launch: Callable):
        self.spec = spec
        self.cost = cost
        self.mem = memory_system
        self.kernels = kernels
        self.dp = dp
        self.on_launch = on_launch
        #: deep-profiling collector (:mod:`repro.perf.collect`); wired by
        #: the Device when profiling is active, else None. Purely
        #: observational — it records counter deltas the engine already
        #: computed and never feeds back into pricing.
        self.profiler = None

    # ------------------------------------------------------------------ API

    def run_instance(self, inst: KernelInstance) -> None:
        """Execute an instance and everything it transitively launches.

        Execution order across the launch forest is FIFO (breadth-first):
        children that are not explicitly joined at a device-sync point run
        after earlier-launched kernels, which mirrors how the hardware's
        grid dispatcher drains the pending queue. (Depth-first draining
        would make recursive claim chains — e.g. BFS-Rec's atomicCAS
        visits — artificially deep and overflow the 24-level DP nesting
        limit that real runs never hit.)
        """
        # coarse tracing split: the root kernel's own rounds (including
        # device-synced children, which run inside _consume_devsync),
        # then the FIFO drain of fire-and-forget DP descendants. The
        # recursive _run_tree below stays uninstrumented so DP-heavy
        # runs don't flood the collector with per-devsync spans.
        queue: deque = deque()
        with span("sim.round-loop", kernel=inst.name):
            self._run_blocks(inst, queue)
        if queue:
            with span("sim.dp-drain", kernel=inst.name) as sp:
                drained = 0
                while queue:
                    self._run_blocks(queue.popleft(), queue)
                    drained += 1
                sp.set(launches=drained)

    def _run_tree(self, roots: list[KernelInstance]) -> None:
        queue = deque(roots)
        while queue:
            inst = queue.popleft()
            self._run_blocks(inst, queue)

    def _run_blocks(self, inst: KernelInstance, queue) -> None:
        prof = self.profiler
        if prof is not None:
            # devsync children execute inside this bracket (via
            # _consume_devsync -> _run_tree), so the stack nests and
            # their rounds attribute to the child, not the parent
            prof.enter(inst)
        try:
            fn = self.kernels.get(inst.name)
            if fn is None:
                raise SimulationError("not loaded on this device")
            if inst.grid <= 0 or inst.block_dim <= 0:
                raise SimulationError(
                    f"empty launch configuration "
                    f"<<<{inst.grid}, {inst.block_dim}>>>"
                )
            if inst.block_dim > self.spec.max_threads_per_block:
                raise SimulationError(
                    f"block of {inst.block_dim} threads exceeds device "
                    f"limit {self.spec.max_threads_per_block}"
                )
            for bx in range(inst.grid):
                trace, leftover = self._run_block(inst, fn, bx)
                inst.blocks.append(trace)
                # children not consumed by an explicit device-sync join the
                # FIFO queue (implicit join at parent end still holds for the
                # *timing* model via the instance tree)
                queue.extend(leftover)
        except SimulationError as exc:
            # name the innermost failing kernel, once: a device-synced
            # child's error crosses its parent's frame already named
            if exc.kernel is None:
                exc.kernel = inst.name
                exc.args = (f"kernel {inst.name}: {exc}",)
            raise
        finally:
            if prof is not None:
                prof.exit()

    # ------------------------------------------------------------- internals

    def _make_warps(self, inst: KernelInstance, fn, bx: int, shared: dict):
        wsz = self.spec.warp_size
        bdim = inst.block_dim
        warps = []
        for wbase in range(0, bdim, wsz):
            lanes = range(wbase, min(wbase + wsz, bdim))
            ctxs = [ThreadCtx(tx, bx, bdim, inst.grid, shared, wsz) for tx in lanes]
            gens = [fn(ctx, *inst.args) for ctx in ctxs]
            warps.append(_Warp(gens, ctxs))
        return warps

    def _run_block(self, inst: KernelInstance, fn, bx: int):
        shared: dict = {}
        warps = self._make_warps(inst, fn, bx, shared)
        trace = BlockTrace(
            block_idx=bx,
            num_threads=inst.block_dim,
            num_warps=len(warps),
        )
        block_pending: list[KernelInstance] = []
        segment_start = 0  # cycles already closed into previous segments

        while True:
            progressed = False
            barrier_waiters = 0
            done_warps = 0
            for warp in warps:
                status = self._run_warp(warp, inst, trace, block_pending)
                if status == "barrier":
                    barrier_waiters += 1
                elif status == "done":
                    done_warps += 1
                elif status == "devsync":
                    # close current segment at this warp's cycle mark
                    self._consume_devsync(inst, trace, warps, block_pending,
                                          segment_start)
                    segment_start = max(w.cycles for w in warps)
                    progressed = True
                if status == "progress":
                    progressed = True
            if done_warps == len(warps):
                break
            if barrier_waiters + done_warps == len(warps) and barrier_waiters:
                # release the block barrier; warps that arrived early have
                # been stalling since their own arrival cycle — attribute
                # the gap to the release point (the slowest warp)
                mark = max(w.cycles for w in warps)
                for warp in warps:
                    if any(st == _AT_BARRIER for st in warp.states):
                        trace.barrier_stall_cycles += mark - warp.cycles
                    for i, st in enumerate(warp.states):
                        if st == _AT_BARRIER:
                            warp.states[i] = _RUNNING
                progressed = True
            if not progressed:
                raise SimulationError(
                    f"deadlock in block {bx}: "
                    f"{barrier_waiters} warps at barrier, {done_warps} done"
                )

        block_cycles = max(w.cycles for w in warps) if warps else 0
        trace.segments.append(block_cycles - segment_start)
        for warp in warps:
            trace.warp_steps += warp.steps
            trace.active_lane_steps += warp.active_steps
        # Launches were already recorded in trace.launches at LAUNCH time;
        # anything still in block_pending joins at parent-block end.
        return trace, block_pending

    def _run_warp(self, warp: _Warp, inst, trace, block_pending) -> str:
        """Advance one warp until it blocks, finishes, or requests devsync.

        Each round first advances every live lane to its next event
        (gather), then applies the gathered events in lane order: all at
        once when :meth:`_apply_batched` takes the round, else one by one
        below. Gathering first is exact because kernel code between
        yields touches device state only through events (DESIGN.md §15).

        Returns 'progress' | 'barrier' | 'done' | 'devsync'.
        """
        states = warp.states
        threads = warp.threads
        pending = warp.pending
        ctxs = warp.ctxs
        mem = self.mem
        cost = self.cost
        dp = self.dp
        apply_batched = self._apply_batched
        seg_bytes = self.spec.dram_segment_bytes
        prof = self.profiler
        made_progress = False

        # the live-lane list changes only when a lane's state does (done,
        # barrier arrival, reconvergence) — keep it across rounds
        live: list = None
        while True:
            if live is None:
                live = [i for i, st in enumerate(states) if st == _RUNNING]
            if not live:
                # warp-scoped reconvergence: release lanes waiting at a
                # __syncwarp once no lane can run ahead of it
                released = False
                for i, st in enumerate(states):
                    if st == _AT_WARP_BARRIER:
                        states[i] = _RUNNING
                        released = True
                if released:
                    made_progress = True
                    live = None
                    continue
                if any(st == _AT_BARRIER for st in states):
                    return "barrier" if not made_progress else "progress"
                return "done"

            # --- gather: advance every live lane to its next event --------
            lanes: list[int] = []
            events: list[tuple] = []
            add_lane = lanes.append
            add_event = events.append
            dirty = False
            op0 = -1  # the round's opcode: -1 unset, -2 mixed
            for i in live:
                try:
                    ev = threads[i].send(pending[i])
                except StopIteration:
                    states[i] = _DONE
                    dirty = True
                    continue
                pending[i] = None
                add_lane(i)
                add_event(ev)
                op = ev[0]
                if op != op0 and op0 != -2:
                    op0 = op if op0 == -1 else -2
            active = len(lanes)
            if active == 0:
                # all live lanes hit a barrier simultaneously or finished
                live = None
                continue
            made_progress = True
            if prof is not None:
                ctr = mem.counters
                dram0 = ctr.dram_transactions
                hits0 = ctr.l2_hits
                miss0 = ctr.l2_misses

            # --- apply, in lane order --------------------------------------
            extra_steps = 0
            devsync_requested = False
            cycles = apply_batched(op0, lanes, events, pending)
            batched = cycles is not None
            if not batched:
                accesses: list[tuple[int, int]] = []  # (addr, itemsize)
                atomics: dict[int, int] = {}
                extra_cycles = 0
                for i, ev in zip(lanes, events):
                    op = ev[0]
                    if op == LD:
                        arr = ev[1]
                        idx = ev[2]
                        pending[i] = arr.load(idx)
                        accesses.append((arr.addr_of(idx), arr.itemsize))
                    elif op == ST:
                        arr = ev[1]
                        idx = ev[2]
                        arr.store(idx, ev[3])
                        accesses.append((arr.addr_of(idx), arr.itemsize))
                    elif op == ATOM:
                        pending[i] = self._do_atomic(ev)
                        addr = ev[2].addr_of(ev[3])
                        atomics[addr] = atomics.get(addr, 0) + 1
                        accesses.append((addr, ev[2].itemsize))
                    elif op == SYNC:
                        states[i] = _AT_BARRIER
                        dirty = True
                    elif op == WSYNC:
                        states[i] = _AT_WARP_BARRIER
                        dirty = True
                    elif op == LAUNCH:
                        child = self.on_launch(inst, ev[1], ev[2], ev[3],
                                               ev[4])
                        block_pending.append(child)
                        trace.launches.append(LaunchRecord(
                            segment=len(trace.segments),
                            offset_cycles=warp.cycles,
                            child=child,
                        ))
                        extra_cycles += (cost.launch_uops
                                         * cost.cycles_per_warp_step)
                        extra_steps += cost.launch_uops
                    elif op == DEVSYNC:
                        devsync_requested = True
                    elif op == INTR:
                        value, intr_cycles = dp.handle_intrinsic(
                            ev[1], ev[2], inst, ctxs[i])
                        pending[i] = value
                        extra_cycles += intr_cycles
                    else:  # pragma: no cover - defensive
                        raise SimulationError(f"unknown event opcode {op}")
                # --- price the round ---------------------------------------
                cycles = cost.cycles_per_warp_step
                if accesses:
                    cycles += mem.access_segments(
                        coalesce_round(accesses, seg_bytes))
                if atomics:
                    worst_conflict = max(atomics.values())
                    cycles += cost.atomic_cycles * worst_conflict
                cycles += extra_cycles
            # fold per-thread compute cycles: take the max lane accumulator
            lane_extra = 0
            for i in live:
                c = ctxs[i].c
                if c:
                    if c > lane_extra:
                        lane_extra = c
                    ctxs[i].c = 0
            warp.cycles += cycles + lane_extra
            warp.steps += 1 + extra_steps
            warp.active_steps += active + extra_steps
            if prof is not None:
                prof.record_round(op0, active,
                                  ctr.dram_transactions - dram0,
                                  ctr.l2_hits - hits0,
                                  ctr.l2_misses - miss0, batched)
            if dirty:
                live = None
            if devsync_requested:
                return "devsync"

    def _apply_batched(self, op0: int, lanes: list, events: list,
                       pending: list):
        """Apply a round's events (parallel to ``lanes``, in lane order;
        ``op0`` their opcode, -2 if mixed) at once, storing each lane's
        result in ``pending``. Returns the round's cycles without
        per-lane compute, or None to leave the round to the per-event
        path — always, in this scalar reference."""
        return None

    def _do_atomic(self, ev):
        op = ev[1]
        arr: DeviceArray = ev[2]
        idx = ev[3]
        old = arr.load(idx)
        if op == "add":
            arr.store(idx, old + ev[4])
        elif op == "sub":
            arr.store(idx, old - ev[4])
        elif op == "min":
            if ev[4] < old:
                arr.store(idx, ev[4])
        elif op == "max":
            if ev[4] > old:
                arr.store(idx, ev[4])
        elif op == "exch":
            arr.store(idx, ev[4])
        elif op == "cas":
            if old == ev[4]:
                arr.store(idx, ev[5])
        elif op == "or":
            arr.store(idx, old | ev[4])
        elif op == "and":
            arr.store(idx, old & ev[4])
        else:  # pragma: no cover - typechecker prevents
            raise SimulationError(f"unknown atomic op {op!r}")
        return old

    def _consume_devsync(self, inst, trace, warps, block_pending, segment_start):
        """Close the current segment and functionally run the block's
        pending children (parent swap happens here in the timing model)."""
        mark = max(w.cycles for w in warps)
        trace.segments.append(mark - segment_start)
        children = list(block_pending)
        block_pending.clear()
        # cudaDeviceSynchronize: the block's children (and, transitively,
        # their descendants) must complete before the block resumes
        self._run_tree(children)


def coalesce_round(accesses: list[tuple[int, int]], seg_bytes: int) -> set[int]:
    """Coalesce one warp round's (addr, itemsize) accesses into segments.

    As the hardware services a warp's global-memory instruction: lane
    addresses group into aligned ``seg_bytes`` segments, each distinct
    segment one transaction, and an access straddling a boundary touches
    both."""
    segments: set[int] = set()
    add = segments.add
    for addr, itemsize in accesses:
        first = addr // seg_bytes
        add(first)
        last = (addr + itemsize - 1) // seg_bytes
        if last != first:
            add(last)
    return segments
