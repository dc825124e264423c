"""Deep-profile reports: per-kernel attribution, hotspots, Chrome export.

Consumes a finished :class:`~repro.perf.collect.ProfileCollector` and
produces:

* :func:`build_profile` — a :class:`DeepProfile` merging the two halves
  of attribution: trace-derived stats (busy cycles, warp efficiency,
  barrier stalls — from the :class:`BlockTrace` forest the run already
  recorded) and run-time counters (DRAM/L2 deltas per round, push
  contention, divergent-vs-uniform rounds — from the collector), plus
  an exact occupancy/active-kernels step function from a re-scheduled
  timeline.
* :func:`render_profile` — the deterministic ``repro profile`` table
  with a hotspot ranking (byte-identical across runs of the same spec).
* :func:`profile_chrome_trace` / :func:`write_profile_trace` — the
  kernel timeline + occupancy counter track as Chrome trace-event JSON
  (same envelope and writer as :mod:`repro.telemetry.export`).

The reconciliation invariant: the re-scheduled makespan is computed
without a memory system, which the scheduler only uses for overhead
*counter* charging, never timing — so ``rescheduled_cycles`` equals
``RunMetrics.cycles`` exactly, and the table's total line is provably
the same quantity the figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.profiler import instance_trace_stats
from ..sim.timeline import capture_timeline
from .collect import ProfileCollector

#: stamped into exported profile JSON
PROFILE_FORMAT = "repro-perf-profile/1"


@dataclass
class KernelRow:
    """Aggregated attribution for one kernel (by name × launch origin)."""

    name: str
    from_device: bool
    instances: int = 0
    busy_cycles: int = 0
    warp_steps: int = 0
    active_lane_steps: int = 0
    barrier_stall_cycles: int = 0
    launches: int = 0
    dram_transactions: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    rounds_uniform: int = 0
    rounds_divergent: int = 0
    rounds_batched: int = 0
    pushes_by_scope: dict = field(default_factory=dict)
    push_cycles: int = 0
    pops: int = 0
    pop_cycles: int = 0
    buffers_by_scope: dict = field(default_factory=dict)
    acquire_cycles: int = 0

    @property
    def label(self) -> str:
        return self.name + (" <dp>" if self.from_device else "")

    @property
    def warp_efficiency(self) -> float:
        if not self.warp_steps:
            return 0.0
        return self.active_lane_steps / (self.warp_steps * 32)

    @property
    def rounds(self) -> int:
        return self.rounds_uniform + self.rounds_divergent

    @property
    def pushes(self) -> int:
        return sum(self.pushes_by_scope.values())


@dataclass
class DeepProfile:
    """Everything ``repro profile`` renders, as plain data."""

    label: str
    #: sum of RunMetrics.cycles over the run's synchronize points
    total_cycles: float = 0.0
    #: makespan of the memsys-free re-schedule (must equal total_cycles)
    rescheduled_cycles: float = 0.0
    kernels: list[KernelRow] = field(default_factory=list)
    #: (t, resident_warps, active_kernels) step function, cross-segment
    occupancy: list[tuple] = field(default_factory=list)
    #: (name, from_device, depth, start, duration, grid, block) spans
    spans: list[tuple] = field(default_factory=list)
    dram_transactions: int = 0
    overhead_transactions: dict = field(default_factory=dict)
    warp_execution_efficiency: float = 0.0
    achieved_occupancy: float = 0.0
    max_resident_warps: int = 0

    @property
    def busy_cycles(self) -> int:
        return sum(k.busy_cycles for k in self.kernels)

    @property
    def attributed_dram(self) -> int:
        return sum(k.dram_transactions for k in self.kernels)

    @property
    def scheduler_dram(self) -> int:
        """Overhead traffic charged at timing time (parent swaps and
        virtual-pool spills), which no functional round can own."""
        return self.dram_transactions - self.attributed_dram

    def hotspots(self, n: int = 3) -> list[KernelRow]:
        return self.kernels[:n]


def build_profile(collector: ProfileCollector, label: str = "") -> DeepProfile:
    """Merge collector counters with the recorded instance forests."""
    profile = DeepProfile(label=label)
    rows: dict[tuple, KernelRow] = {}
    offset = 0.0
    for seg in collector.segments:
        metrics = seg.metrics
        profile.total_cycles += metrics.cycles
        # cumulative memory-system counters: the last segment's metrics
        # already include every earlier segment of this run
        profile.dram_transactions = metrics.dram_transactions
        profile.overhead_transactions = dict(metrics.overhead_transactions)
        profile.warp_execution_efficiency = metrics.warp_execution_efficiency
        profile.achieved_occupancy = metrics.achieved_occupancy
        profile.max_resident_warps = seg.spec.max_resident_warps
        timeline = capture_timeline(seg.roots, seg.spec, seg.cost,
                                    occupancy=True)
        profile.rescheduled_cycles += timeline.makespan
        for sample in timeline.occupancy:
            profile.occupancy.append((sample.t + offset,
                                      sample.resident_warps,
                                      sample.active_kernels))
        for sp in timeline.spans:
            profile.spans.append((sp.name, sp.from_device, sp.depth,
                                  sp.start + offset, sp.duration,
                                  sp.grid, sp.block_dim))
        for root in seg.roots:
            for inst in root.subtree():
                row = rows.setdefault(
                    (inst.name, inst.from_device),
                    KernelRow(name=inst.name, from_device=inst.from_device))
                row.instances += 1
                stats = instance_trace_stats(inst)
                row.busy_cycles += stats["busy_cycles"]
                row.warp_steps += stats["warp_steps"]
                row.active_lane_steps += stats["active_lane_steps"]
                row.barrier_stall_cycles += stats["barrier_stall_cycles"]
                row.launches += stats["launches"]
                counters = collector.instances.get(inst.uid)
                if counters is not None:
                    row.dram_transactions += counters.dram_transactions
                    row.l2_hits += counters.l2_hits
                    row.l2_misses += counters.l2_misses
                    row.rounds_uniform += counters.rounds_uniform
                    row.rounds_divergent += counters.rounds_divergent
                    row.rounds_batched += counters.rounds_batched
                    for scope, n in counters.pushes_by_scope.items():
                        row.pushes_by_scope[scope] = \
                            row.pushes_by_scope.get(scope, 0) + n
                    row.push_cycles += counters.push_cycles
                    row.pops += counters.pops
                    row.pop_cycles += counters.pop_cycles
                    for scope, n in counters.buffers_by_scope.items():
                        row.buffers_by_scope[scope] = \
                            row.buffers_by_scope.get(scope, 0) + n
                    row.acquire_cycles += counters.acquire_cycles
        offset += timeline.makespan
    profile.kernels = sorted(rows.values(),
                             key=lambda r: (-r.busy_cycles, r.label))
    return profile


# ------------------------------------------------------------------ rendering


def _pct(num: float, den: float) -> str:
    return f"{100.0 * num / den:.1f}%" if den else "-"


def render_profile(profile: DeepProfile, top: int = 0) -> str:
    """The ``repro profile`` text report. Deterministic for a
    deterministic run: every number is exact sim state, every float is
    printed with fixed precision, and row order is (busy cycles desc,
    label) — so two runs of one spec render byte-identically."""
    from ..experiments.reporting import Table

    title = "per-kernel attribution"
    if profile.label:
        title += f" — {profile.label}"
    table = Table(title=title, columns=[
        "kernel", "inst", "busy-cy", "busy%", "warp-eff", "stall-cy",
        "dram", "rounds", "div%", "batched%", "pushes", "push-cy",
    ])
    busy_total = profile.busy_cycles
    rows = profile.kernels[:top] if top else profile.kernels
    for row in rows:
        pushes = row.pushes
        push_text = "-"
        if pushes:
            scopes = "+".join(f"{scope}:{n}" for scope, n in
                              sorted(row.pushes_by_scope.items()))
            push_text = f"{pushes} ({scopes})"
        table.add(
            row.label, str(row.instances), f"{row.busy_cycles:,}",
            _pct(row.busy_cycles, busy_total),
            f"{row.warp_efficiency:.1%}",
            f"{row.barrier_stall_cycles:,}",
            f"{row.dram_transactions:,}", f"{row.rounds:,}",
            _pct(row.rounds_divergent, row.rounds),
            _pct(row.rounds_batched, row.rounds),
            push_text, f"{row.push_cycles:,}",
        )
    if top and len(profile.kernels) > top:
        table.notes.append(
            f"{len(profile.kernels) - top} more kernels elided (--top)")
    lines = [table.render()]
    lines.append("")
    lines.append("hotspots (by busy cycles):")
    for i, row in enumerate(profile.hotspots(), 1):
        lines.append(f"  {i}. {row.label:32s} "
                     f"{_pct(row.busy_cycles, busy_total):>6s} of busy, "
                     f"{_pct(row.dram_transactions, profile.dram_transactions):>6s} of DRAM")
    lines.append("")
    lines.append(f"makespan          : {profile.total_cycles:,.0f} cycles "
                 f"(re-scheduled: {profile.rescheduled_cycles:,.0f})")
    lines.append(f"warp efficiency   : "
                 f"{profile.warp_execution_efficiency:.1%} run-wide")
    lines.append(f"occupancy         : {profile.achieved_occupancy:.1%} "
                 f"achieved ({len(profile.occupancy)} timeline steps)")
    overhead = sum(profile.overhead_transactions.values())
    tags = ", ".join(f"{k}={v}" for k, v in
                     sorted(profile.overhead_transactions.items()))
    lines.append(f"DRAM transactions : {profile.dram_transactions:,} total = "
                 f"{profile.attributed_dram:,} kernel-attributed + "
                 f"{profile.scheduler_dram:,} scheduler-time "
                 f"(overhead incl. in-round: {overhead:,}; {tags})" if tags
                 else f"DRAM transactions : {profile.dram_transactions:,}")
    return "\n".join(lines)


def render_occupancy(profile: DeepProfile, width: int = 64,
                     max_rows: int = 24) -> str:
    """ASCII occupancy timeline (deterministically downsampled)."""
    if not profile.occupancy or profile.total_cycles <= 0:
        return "(no occupancy samples)"
    samples = profile.occupancy
    step = max(1, len(samples) // max_rows)
    shown = samples[::step]
    peak = max(1, profile.max_resident_warps)
    lines = ["t(cycles)        warps  kernels"]
    for t, warps, kernels in shown:
        bar = "#" * int(round(width * warps / peak))
        lines.append(f"{t:>14,.0f}  {warps:>5d}  {kernels:>7d}  |{bar}")
    if step > 1:
        lines.append(f"... ({len(samples)} transitions, showing every "
                     f"{step}th)")
    return "\n".join(lines)


# ---------------------------------------------------------------- exporters


def profile_to_json(profile: DeepProfile) -> dict:
    """JSON-able view of the profile (``repro profile --json``)."""
    return {
        "format": PROFILE_FORMAT,
        "label": profile.label,
        "total_cycles": profile.total_cycles,
        "rescheduled_cycles": profile.rescheduled_cycles,
        "warp_execution_efficiency": profile.warp_execution_efficiency,
        "achieved_occupancy": profile.achieved_occupancy,
        "dram_transactions": profile.dram_transactions,
        "overhead_transactions": dict(sorted(
            profile.overhead_transactions.items())),
        "kernels": [{
            "kernel": row.label,
            "instances": row.instances,
            "busy_cycles": row.busy_cycles,
            "warp_efficiency": row.warp_efficiency,
            "barrier_stall_cycles": row.barrier_stall_cycles,
            "dram_transactions": row.dram_transactions,
            "l2_hits": row.l2_hits,
            "l2_misses": row.l2_misses,
            "rounds_uniform": row.rounds_uniform,
            "rounds_divergent": row.rounds_divergent,
            "rounds_batched": row.rounds_batched,
            "pushes_by_scope": dict(sorted(row.pushes_by_scope.items())),
            "push_cycles": row.push_cycles,
            "pops": row.pops,
            "pop_cycles": row.pop_cycles,
            "launches": row.launches,
        } for row in profile.kernels],
        "occupancy": [list(s) for s in profile.occupancy],
    }


def profile_chrome_trace(profile: DeepProfile) -> dict:
    """Kernel timeline + occupancy counters as Chrome trace-event JSON.

    Reuses the telemetry trace envelope (``otherData.format``), with one
    difference in units: timestamps are simulated *cycles*, not wall
    microseconds. Kernel lifetimes are ``ph: "X"`` complete events on a
    per-nesting-depth track; occupancy/active-kernel series are
    ``ph: "C"`` counter events, which Perfetto renders as a filled area.
    """
    from ..telemetry.export import TRACE_FORMAT

    events = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": f"simulated GPU ({profile.label})"
                  if profile.label else "simulated GPU"}},
    ]
    depths = sorted({sp[2] for sp in profile.spans})
    for depth in depths:
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": depth + 1,
                       "args": {"name": f"dp-depth-{depth}"}})
    for name, from_device, depth, start, duration, grid, block in \
            profile.spans:
        events.append({
            "name": name, "cat": "kernel", "ph": "X",
            "ts": round(start, 3), "dur": round(max(0.0, duration), 3),
            "pid": 0, "tid": depth + 1,
            "args": {"grid": grid, "block": block,
                     "from_device": from_device},
        })
    for t, warps, kernels in profile.occupancy:
        events.append({
            "name": "occupancy", "ph": "C", "ts": round(t, 3),
            "pid": 0, "tid": 0,
            "args": {"resident_warps": warps, "active_kernels": kernels},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"format": TRACE_FORMAT,
                      "profile": PROFILE_FORMAT,
                      "unit": "cycles",
                      "kernel_spans": len(profile.spans),
                      "occupancy_samples": len(profile.occupancy)},
    }


def write_profile(path, profile: DeepProfile) -> str:
    """Write the profile JSON (not the Chrome trace) to ``path``."""
    import json
    import os

    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_json(profile), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_profile_trace(path, profile: DeepProfile) -> str:
    """Write the Chrome trace of the profile timeline to ``path``."""
    from ..telemetry.export import write_trace_object

    return write_trace_object(path, profile_chrome_trace(profile))
