"""Vectorized SIMT engine: batched warp rounds.

:class:`VectorizedEngine` runs the scalar engine's one round loop
(:meth:`~repro.sim.engine.FunctionalEngine._run_warp`: blocks
sequential, warps to their blocking point in index order, lanes in
lockstep rounds) and overrides only its ``_apply_batched`` hook, which
applies a uniform round's gathered events with NumPy array operations:
byte-identical outputs, measured speedup
(``benchmarks/bench_sim_engine.py``).

Equivalence argument (DESIGN.md §15 carries the long form):

1. **Gather-then-apply.** The round loop advances every live lane to
   its next event, then applies the events in lane order; a batch must
   leave what lane-order application would (the loop's docstring says
   why gathering first is exact).

2. **Uniform-round fast paths.** Once gathered, a round whose events are
   all loads from one array (or all stores, or all pushes into one
   consolidation buffer — the common lockstep case) is processed as one
   array operation. Batch loads read ``data[idx].tolist()`` — the same
   Python scalars as per-element ``.item()``; batch stores rely on
   NumPy's last-write-wins for duplicate fancy indices, which matches
   lane order; conversion errors (C wraparound) and bounds violations
   fall back to the per-event path so error semantics stay identical.

3. **Order-preserving coalescing.** ``coalesce_round`` returns a
   ``set`` whose iteration order feeds the *stateful* LRU L2 — so the
   batched paths compute first/last segment ids with NumPy but insert
   them into the set in exactly the scalar access order, making the L2
   probe sequence (and therefore every later hit/miss) identical.

4. **Operand-uniform rounds.** When every lane's event is the same —
   one element loaded, or one consolidation-buffer slot read, by the
   whole warp — the round is served once: one read broadcast to every
   lane, and for a buffer read one L2 probe plus k-1 hits. Exact
   because re-probing an LRU set's most recently used line is a hit
   that leaves the set's order unchanged.

Rounds that are divergent (mixed opcodes), touch several arrays, or hit
an edge case (bounds violation, integer overflow, buffer grow) are left
to the round loop's per-event path, the one the scalar engine takes for
every round, so error semantics cannot drift.
"""

from __future__ import annotations

import numpy as np

from .engine import FunctionalEngine
from .events import ATOM, INTR, LD, ST

#: below this many events a round is applied event by event — NumPy
#: call overhead beats the saving on tiny arrays (purely a performance
#: cutoff; both paths are exact)
_MIN_BATCH = 4

#: intrinsic names batched when a round is uniform over one buffer
_PUSH_NAMES = ("buf_push1", "buf_push2", "buf_push3", "buf_push4")


def segment_probe_order(addrs, itemsize, seg_bytes):
    """The scalar engine's coalesced segment set for one round, from an
    address array.

    The L2 is a stateful LRU probed in set-iteration order, and a
    Python set's layout depends on its insertion sequence — so this
    must insert exactly the ids :func:`coalesce_round` inserts, in
    first-occurrence order (each access's first segment, then its
    straddle id). Re-inserting a present element never changes the
    layout, so deduplicating to first occurrences beforehand (the
    interleave + stable-unique below) builds the identical set without
    the scalar per-access loop. Shared by the engine's batched round
    paths and the engine bench's slice replay.
    """
    firsts = addrs // seg_bytes
    lasts = (addrs + (itemsize - 1)) // seg_bytes
    if firsts.shape[0] <= 64:
        # warp-sized rounds: the plain loop beats unique's sort setup
        # (purely a performance cutoff; both branches build the same set)
        segments: set[int] = set()
        add = segments.add
        for f, last in zip(firsts.tolist(), lasts.tolist()):
            add(f)
            if last != f:
                add(last)
        return segments
    interleaved = np.empty(2 * firsts.shape[0], dtype=np.int64)
    interleaved[0::2] = firsts
    interleaved[1::2] = lasts
    _, first_pos = np.unique(interleaved, return_index=True)
    ordered = interleaved[np.sort(first_pos)]
    out: set[int] = set()
    add = out.add
    for seg in ordered.tolist():
        add(seg)
    return out


def _operand_uniform(events) -> bool:
    """Whether every gathered event equals the first — the lockstep case
    of one operand for the whole warp. A C-speed count; comparing the
    last lane first lets mixed rounds leave without a scan."""
    ev0 = events[0]
    return events[-1] == ev0 and events.count(ev0) == len(events)


#: atomic ops batched when a round is uniform, one-array and
#: duplicate-free (CAS claim chains stay sequential)
_BATCH_ATOMIC_OPS = frozenset(("add", "sub", "min", "max", "exch",
                               "or", "and"))


class VectorizedEngine(FunctionalEngine):
    """The scalar engine with batched uniform rounds: loads, stores and
    duplicate-free atomics on one array as NumPy operations, and
    consolidation-buffer pushes, reads and sizes on one buffer through
    the device's :class:`~repro.sim.dp.DPRuntime`
    (:meth:`~repro.sim.dp.DPRuntime.push_many` and friends)."""

    def _apply_batched(self, op0, lanes, events, pending):
        if len(lanes) < _MIN_BATCH:
            return None
        step = self.cost.cycles_per_warp_step
        seg_bytes = self.spec.dram_segment_bytes
        if op0 == INTR:
            cycles = self._batch_intrinsics(lanes, events, pending)
            return None if cycles is None else step + cycles
        if op0 == LD:
            segments = self._batch_loads(lanes, events, pending, seg_bytes)
        elif op0 == ST:
            segments = self._batch_stores(events, seg_bytes)
        elif op0 == ATOM:
            segments = self._batch_atomics(lanes, events, pending, seg_bytes)
        else:
            return None
        if segments is None:
            return None
        cycles = step + self.mem.access_segments(segments)
        if op0 == ATOM:
            # every address distinct: worst conflict degree 1
            cycles += self.cost.atomic_cycles
        return cycles

    # ------------------------------------------------------------ fast paths

    @staticmethod
    def _round_indices(events):
        """(idx array, shared DeviceArray) for a one-array uniform round,
        else (None, None) — leaving the round to the per-event path."""
        arr = events[0][1]
        for ev in events:
            if ev[1] is not arr:
                return None, None
        try:
            idxs = np.fromiter((ev[2] for ev in events), dtype=np.int64,
                               count=len(events))
        except (TypeError, ValueError, OverflowError):
            return None, None
        return idxs, arr

    @staticmethod
    def _uniform_load(lanes, ev, pending, seg_bytes):
        """Broadcast a round whose lanes all load one element: one read,
        and the segment set :func:`coalesce_round` builds for k identical
        accesses (first segment, then the straddle one). None falls back."""
        arr = ev[1]
        idx = ev[2]
        if type(idx) is not int:
            return None
        i = arr.offset + idx
        data = arr.data
        if not 0 <= i < data.shape[0]:
            return None
        value = data.item(i)
        for lane in lanes:
            pending[lane] = value
        addr = arr.base_addr + i * arr.itemsize
        return {addr // seg_bytes, (addr + arr.itemsize - 1) // seg_bytes}

    def _batch_loads(self, lanes, events, pending, seg_bytes):
        if _operand_uniform(events):
            segments = self._uniform_load(lanes, events[0], pending,
                                          seg_bytes)
            if segments is not None:
                return segments
        idxs, arr = self._round_indices(events)
        if idxs is None:
            return None
        i_arr = idxs + arr.offset
        data = arr.data
        if int(i_arr.min()) < 0 or int(i_arr.max()) >= data.shape[0]:
            return None  # the per-event path raises the scalar error
        # .tolist() yields the same Python scalars as per-element .item()
        for i, value in zip(lanes, data[i_arr].tolist()):
            pending[i] = value
        return segment_probe_order(arr.base_addr + i_arr * arr.itemsize,
                                 arr.itemsize, seg_bytes)

    def _batch_stores(self, events, seg_bytes):
        idxs, arr = self._round_indices(events)
        if idxs is None:
            return None
        i_arr = idxs + arr.offset
        data = arr.data
        if int(i_arr.min()) < 0 or int(i_arr.max()) >= data.shape[0]:
            return None
        try:
            values = np.asarray([ev[3] for ev in events], dtype=data.dtype)
        except (OverflowError, ValueError, TypeError):
            return None  # C-wraparound / odd values: scalar store handles
        # duplicate indices: NumPy keeps the last write, matching lane order
        data[i_arr] = values
        return segment_probe_order(arr.base_addr + i_arr * arr.itemsize,
                                 arr.itemsize, seg_bytes)

    def _batch_atomics(self, lanes, events, pending, seg_bytes):
        """Batch a uniform atomic round with pairwise-distinct addresses.

        With no two lanes on one address there are no same-round
        read-modify-write chains, so old values are one gather and new
        values one array op. Integer ops require Python-int operands
        (the dtype cast must not change arithmetic) and rely on NumPy's
        C wraparound matching exact-Python-then-wrap modular arithmetic;
        float add/sub run in float64 and round once on store, exactly
        like the scalar ``old + v`` → ``store`` sequence."""
        op = events[0][1]
        if op not in _BATCH_ATOMIC_OPS:
            return None
        arr = events[0][2]
        raw_idxs = []
        for ev in events:
            if ev[1] != op or ev[2] is not arr:
                return None
            raw_idxs.append(ev[3])
        # cheap pure-Python duplicate check before any NumPy work:
        # conflicting rounds (CAS claims, shared counters) are common and
        # must not pay array-construction overhead just to fall back
        if len(set(raw_idxs)) != len(raw_idxs):
            return None
        data = arr.data
        kind = data.dtype.kind
        if kind in "iu":
            for ev in events:
                if not isinstance(ev[4], int):
                    return None
        elif op in ("or", "and"):
            return None  # bitwise on floats: scalar path raises
        try:
            idxs = np.fromiter(raw_idxs, dtype=np.int64, count=len(raw_idxs))
        except (TypeError, ValueError, OverflowError):
            return None
        i_arr = idxs + arr.offset
        if int(i_arr.min()) < 0 or int(i_arr.max()) >= data.shape[0]:
            return None
        try:
            values = np.asarray([ev[4] for ev in events], dtype=data.dtype)
        except (OverflowError, ValueError, TypeError):
            return None
        old = data[i_arr]
        for i, value in zip(lanes, old.tolist()):
            pending[i] = value
        if op in ("add", "sub") and kind == "f":
            wide = np.asarray([ev[4] for ev in events], dtype=np.float64)
            acc = old.astype(np.float64)
            new = (acc + wide if op == "add" else acc - wide).astype(
                data.dtype)
        elif op == "add":
            new = old + values
        elif op == "sub":
            new = old - values
        elif op == "min":
            new = np.minimum(old, values)
        elif op == "max":
            new = np.maximum(old, values)
        elif op == "exch":
            new = values
        elif op == "or":
            new = old | values
        else:  # "and"
            new = old & values
        data[i_arr] = new
        return segment_probe_order(arr.base_addr + i_arr * arr.itemsize,
                                 arr.itemsize, seg_bytes)

    def _batch_intrinsics(self, lanes, events, pending):
        """Batch a uniform intrinsic round through the DP runtime.

        Returns the summed intrinsic cycles, or None to fall back."""
        ev0 = events[0]
        name = ev0[1]
        if name == "buf_get" and len(ev0[2]) == 3 \
                and _operand_uniform(events):
            out = self.dp.get_uniform(*ev0[2], len(events))
            if out is not None:
                value, cycles = out
                for i in lanes:
                    pending[i] = value
                return cycles
        if name in _PUSH_NAMES:
            arity = int(name[-1]) + 1
        elif name == "buf_get":
            arity = 3
        elif name == "buf_size":
            arity = 1
        else:
            return None
        for ev in events:
            if ev[1] != name or len(ev[2]) != arity:
                return None
        handle = events[0][2][0]
        for ev in events:
            if ev[2][0] != handle:
                return None
        dp = self.dp
        if name in _PUSH_NAMES:
            out = dp.push_many(handle, [ev[2][1:] for ev in events])
        elif name == "buf_get":
            out = dp.get_many(handle, [ev[2][1] for ev in events],
                              [ev[2][2] for ev in events])
        else:
            out = dp.size_many(handle, len(events))
        if out is None:
            return None
        values, cycles = out
        for i, value in zip(lanes, values):
            pending[i] = value
        return cycles
