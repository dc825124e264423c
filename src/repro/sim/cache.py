"""L2 cache and DRAM-transaction accounting.

The paper's Fig. 10 counts DRAM read+write transactions via the NVIDIA
profiler. We model the path the same way the hardware does at first order:
warp memory accesses are coalesced into 128-byte segments
(:func:`repro.sim.engine.coalesce_round`), each segment probes a device-wide L2 modelled
as set-associative LRU, and misses (plus write-backs, which we fold into
the miss count) become DRAM transactions.

Overhead traffic that does not originate in kernel code — pending-launch
parameter buffering, parent-block swap at ``cudaDeviceSynchronize``,
virtual-pool management — is charged through :meth:`MemorySystem.charge_overhead`
with a tag, so the profiler can break transactions down by source exactly
like DESIGN.md §5 requires.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .specs import CostModel, DeviceSpec


@dataclass
class MemoryCounters:
    """Raw counters maintained by :class:`MemorySystem`."""

    l2_hits: int = 0
    l2_misses: int = 0
    dram_transactions: int = 0
    #: transaction counts by overhead source tag
    overhead: dict = field(default_factory=dict)

    def merge(self, other: "MemoryCounters") -> None:
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.dram_transactions += other.dram_transactions
        for tag, n in other.overhead.items():
            self.overhead[tag] = self.overhead.get(tag, 0) + n


class L2Cache:
    """Set-associative LRU cache over 128-byte segments.

    ``probe`` returns True on hit. The device has a single shared L2, so
    one instance lives in the :class:`MemorySystem`.
    """

    def __init__(self, size_bytes: int, line_bytes: int, ways: int = 16):
        self.line_bytes = line_bytes
        num_lines = max(ways, size_bytes // line_bytes)
        self.num_sets = max(1, num_lines // ways)
        self.ways = ways
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    def probe(self, segment: int) -> bool:
        s = self._sets[segment % self.num_sets]
        if segment in s:
            s.move_to_end(segment)
            return True
        s[segment] = True
        if len(s) > self.ways:
            s.popitem(last=False)
        return False

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class MemorySystem:
    """Couples the L2 model with DRAM counters and stall-cycle pricing."""

    def __init__(self, spec: DeviceSpec, cost: CostModel):
        self.spec = spec
        self.cost = cost
        self.l2 = L2Cache(spec.l2_bytes, spec.dram_segment_bytes)
        self.counters = MemoryCounters()

    def access_segments(self, segments) -> int:
        """Account a warp's coalesced segment set; returns stall cycles."""
        cycles = 0
        probe = self.l2.probe
        hit_cycles = self.cost.l2_hit_cycles
        miss_cycles = self.cost.dram_transaction_cycles
        counters = self.counters
        for seg in segments:
            if probe(seg):
                counters.l2_hits += 1
                cycles += hit_cycles
            else:
                counters.l2_misses += 1
                counters.dram_transactions += 1
                cycles += miss_cycles
        return cycles

    def charge_overhead(self, tag: str, transactions: int) -> None:
        """Charge DRAM traffic that bypasses kernel code (launch-parameter
        buffering, swap, virtual-pool management)."""
        if transactions <= 0:
            return
        self.counters.dram_transactions += transactions
        self.counters.overhead[tag] = self.counters.overhead.get(tag, 0) + transactions

    def reset(self) -> None:
        self.counters = MemoryCounters()
        self.l2.flush()
