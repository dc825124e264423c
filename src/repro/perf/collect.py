"""Deep-profiling collector: per-kernel-instance counter attribution.

The sim's :class:`~repro.sim.profiler.RunMetrics` are whole-run scalars;
this module adds the *attribution* layer underneath them — which kernel
spent the cycles, issued the DRAM transactions, fought over the
consolidation-buffer insertion counter, or ran divergent rounds.

Activation mirrors telemetry tracing (:mod:`repro.telemetry.trace`): a
ContextVar holds the active :class:`ProfileCollector`; engines, the DP
runtime and the Device read it once at construction and carry a plain
attribute, so the *disabled* path costs one ``is not None`` check per
round and allocates nothing. The collector only ever *reads* simulator
state (memory-system counter deltas around each round, the per-push
cycle price the runtime already computed) — it never prices anything
itself, which is the structural half of the never-perturb argument
(DESIGN.md §17): a profiled run executes the exact same code path with
the exact same costs, so ``RunMetrics`` stay bitwise identical.

Round classification (the ROADMAP's "deepen the vectorized engine"
signal): a round whose gathered lane events share one opcode is
*uniform*, mixed opcodes make it *divergent*, and *batched* counts the
operand-uniform reads the vectorized engine served once — rounds whose
lanes all load one element or read one consolidation-buffer slot, never
a round that writes (always 0 on the scalar engine).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class InstanceProfile:
    """Counters attributed to one kernel instance during execution."""

    uid: int
    name: str
    from_device: bool
    depth: int
    #: round breakdown — uniform (one opcode), divergent (mixed),
    #: batched (operand-uniform reads the vectorized engine served once)
    rounds_uniform: int = 0
    rounds_divergent: int = 0
    rounds_batched: int = 0
    active_lane_events: int = 0
    #: memory-system counter deltas over this instance's rounds
    dram_transactions: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: consolidation-buffer traffic by scope name ('warp'/'block'/'grid')
    pushes_by_scope: dict = field(default_factory=dict)
    #: cycles the runtime charged for pushes (atomic contention on the
    #: insertion counter + slot stores) and pops (buf_get reads)
    push_cycles: int = 0
    pops: int = 0
    pop_cycles: int = 0
    buffers_by_scope: dict = field(default_factory=dict)
    acquire_cycles: int = 0

    @property
    def rounds(self) -> int:
        return self.rounds_uniform + self.rounds_divergent


@dataclass
class ProfileSegment:
    """One synchronize()'s worth of finished work: the instance forest,
    the fused metrics, and the device spec/cost needed to re-schedule
    it for the occupancy timeline."""

    roots: list
    metrics: object
    spec: object
    cost: object


class ProfileCollector:
    """Accumulates per-instance counters across one profiled run.

    Engines bracket each instance's block loop with :meth:`enter` /
    :meth:`exit` (the stack nests across ``cudaDeviceSynchronize``
    children, which run inside the parent's bracket), and report each
    priced round with :meth:`record_round`. The DP runtime reports
    buffer operations against the instance currently on top.
    """

    def __init__(self):
        self.instances: dict[int, InstanceProfile] = {}
        self.segments: list[ProfileSegment] = []
        self._stack: list[InstanceProfile] = []

    # ------------------------------------------------------- engine hooks

    def enter(self, inst) -> None:
        prof = self.instances.get(inst.uid)
        if prof is None:
            prof = InstanceProfile(uid=inst.uid, name=inst.name,
                                   from_device=inst.from_device,
                                   depth=inst.depth)
            self.instances[inst.uid] = prof
        self._stack.append(prof)

    def exit(self) -> None:
        self._stack.pop()

    def record_round(self, op0: int, active: int, dram: int, l2_hits: int,
                     l2_misses: int, batched: bool) -> None:
        """One priced warp round of the instance on top of the stack.

        ``op0`` is the engines' opcode-uniformity marker (an opcode when
        every gathered event shares it, ``-2`` when mixed, ``-1`` when
        the round carried only state transitions); the counter arguments
        are memory-system deltas across the round.
        """
        prof = self._stack[-1]
        if op0 == -2:
            prof.rounds_divergent += 1
        else:
            prof.rounds_uniform += 1
            if batched:
                prof.rounds_batched += 1
        prof.active_lane_events += active
        prof.dram_transactions += dram
        prof.l2_hits += l2_hits
        prof.l2_misses += l2_misses

    # ----------------------------------------------------- DP runtime hooks

    def record_push(self, scope: str, n: int, cycles: int) -> None:
        prof = self._stack[-1] if self._stack else None
        if prof is None:
            return
        prof.pushes_by_scope[scope] = prof.pushes_by_scope.get(scope, 0) + n
        prof.push_cycles += cycles

    def record_pop(self, n: int, cycles: int) -> None:
        prof = self._stack[-1] if self._stack else None
        if prof is None:
            return
        prof.pops += n
        prof.pop_cycles += cycles

    def record_acquire(self, scope: str, cycles: int) -> None:
        prof = self._stack[-1] if self._stack else None
        if prof is None:
            return
        prof.buffers_by_scope[scope] = \
            prof.buffers_by_scope.get(scope, 0) + 1
        prof.acquire_cycles += cycles

    # ------------------------------------------------------------- finalize

    def finalize(self, roots: list, metrics, spec, cost) -> None:
        """Called by ``Device.synchronize`` with the finished forest and
        its fused metrics (before the device clears its root list)."""
        self.segments.append(ProfileSegment(roots=roots, metrics=metrics,
                                            spec=spec, cost=cost))

    @property
    def total_cycles(self) -> float:
        return sum(seg.metrics.cycles for seg in self.segments)


# ---------------------------------------------------------------- activation

#: the active collector for the current context; None = profiling off
_STATE: ContextVar[Optional[ProfileCollector]] = ContextVar(
    "repro_perf_collector", default=None)


def active_collector() -> Optional[ProfileCollector]:
    """The collector bound in this context, or None (profiling off)."""
    return _STATE.get()


@contextmanager
def profiling(collector: Optional[ProfileCollector] = None):
    """Bind a collector so Devices constructed inside attach to it::

        with profiling() as collector:
            run = app.run(RunSpec("sssp", "consolidated"))
        profile = build_profile(collector)

    Like :func:`repro.telemetry.tracing`, this is observational only:
    results, ``RunMetrics`` and cache keys are bitwise/byte identical with
    and without an active collector (regression-tested in
    tests/test_perf.py).
    """
    if collector is None:
        collector = ProfileCollector()
    token = _STATE.set(collector)
    try:
        yield collector
    finally:
        _STATE.reset(token)
