"""Vectorized SIMT engine: operand-uniform reads, served once.

:class:`VectorizedEngine` runs the scalar engine's one round loop
(:meth:`~repro.sim.engine.FunctionalEngine._run_warp`: blocks
sequential, warps to their blocking point in index order, lanes in
lockstep rounds) and overrides only its ``_apply_batched`` hook, which
serves a round whose lanes all read one operand with one read:
byte-identical outputs, measured speedup
(``benchmarks/bench_sim_engine.py``).

Equivalence argument (DESIGN.md §15 carries the long form):

1. **Gather-then-apply.** The round loop advances every live lane to
   its next event, then applies the events in lane order; a batch must
   leave what lane-order application would (the loop's docstring says
   why gathering first is exact).

2. **Operand-uniform reads.** When every lane's event is the same —
   one element loaded, or one consolidation-buffer slot and field read,
   by the whole warp, as consolidated child warps do in lockstep — the
   round is served once: one read handed to every lane, and for a
   buffer read one L2 probe plus k-1 hits. Exact because re-probing an
   LRU set's most recently used line is a hit that leaves the set's
   order unchanged.

A batched round therefore never writes and never depends on lane order.
Every other round — stores, atomics, pushes, reads of several operands,
mixed opcodes, and any read the scalar path must judge (bounds, operand
types) — takes the round loop's per-event path, the one the scalar
engine takes for every round, so error semantics cannot drift.
"""

from __future__ import annotations

from .engine import FunctionalEngine
from .events import INTR, LD

#: below this many events a round is applied event by event (purely a
#: performance cutoff; both paths are exact)
_MIN_BATCH = 4


def _operand_uniform(events) -> bool:
    """Whether every gathered event equals the first — the lockstep case
    of one operand for the whole warp. A C-speed count; comparing the
    last lane first lets mixed rounds leave without a scan."""
    ev0 = events[0]
    return events[-1] == ev0 and events.count(ev0) == len(events)


class VectorizedEngine(FunctionalEngine):
    """The scalar engine with operand-uniform reads served once: a load
    of one element, or a ``__dp_buf_get`` of one slot and field through
    :meth:`~repro.sim.dp.DPRuntime.get_uniform`."""

    def _apply_batched(self, op0, lanes, events, pending):
        if len(lanes) < _MIN_BATCH:
            return None
        ev = events[0]
        buf_get = op0 == INTR and ev[1] == "buf_get" and len(ev[2]) == 3
        if not (op0 == LD or buf_get) or not _operand_uniform(events):
            return None
        out = (self.dp.get_uniform(*ev[2], len(events)) if buf_get
               else self._uniform_load(ev))
        if out is None:
            return None  # the per-event path judges (and raises) it
        value, cycles = out
        for i in lanes:
            pending[i] = value
        return self.cost.cycles_per_warp_step + cycles

    def _uniform_load(self, ev):
        """A round of loads of one in-range element: ``(value, cycles)``
        for one read, priced as the segment set :func:`coalesce_round`
        builds for k identical accesses (first segment, then the
        straddle one). None declines."""
        arr = ev[1]
        idx = ev[2]
        if type(idx) is not int:
            return None
        i = arr.offset + idx
        data = arr.data
        if not 0 <= i < data.shape[0]:
            return None
        seg_bytes = self.spec.dram_segment_bytes
        addr = arr.base_addr + i * arr.itemsize
        cycles = self.mem.access_segments(
            {addr // seg_bytes, (addr + arr.itemsize - 1) // seg_bytes})
        return data.item(i), cycles
