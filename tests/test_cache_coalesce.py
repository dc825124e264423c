"""Coalescing and L2/DRAM accounting tests."""

from hypothesis import given, strategies as st

from repro.sim.cache import L2Cache, MemorySystem
from repro.sim.engine import coalesce_round
from repro.sim.specs import CostModel, TINY


def transactions_for(addrs, itemsize):
    """Transactions one warp access makes with no cache: the number of
    128-byte segments :func:`coalesce_round` groups it into."""
    return len(coalesce_round([(a, itemsize) for a in addrs], 128))


class TestCoalesce:
    def test_contiguous_warp_access_is_one_transaction(self):
        addrs = [1024 + 4 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 1

    def test_strided_access_explodes(self):
        addrs = [1024 + 128 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 32

    def test_unaligned_contiguous_spans_two_segments(self):
        addrs = [1000 + 4 * lane for lane in range(32)]
        assert transactions_for(addrs, 4) == 2

    def test_same_address_coalesces_to_one(self):
        assert transactions_for([512] * 32, 4) == 1

    def test_eight_byte_access_straddling_boundary(self):
        assert transactions_for([124], 8) == 2

    def test_empty(self):
        assert transactions_for([], 4) == 0

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_transaction_count_bounds(self, addrs):
        t = transactions_for(addrs, 4)
        assert 1 <= t <= 2 * len(set(addrs))

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=32))
    def test_segments_cover_all_addresses(self, addrs):
        segments = coalesce_round([(a, 4) for a in addrs], 128)
        for a in addrs:
            assert a // 128 in segments


class TestL2Cache:
    def test_miss_then_hit(self):
        l2 = L2Cache(size_bytes=4096, line_bytes=128)
        assert l2.probe(10) is False
        assert l2.probe(10) is True

    def test_lru_eviction(self):
        l2 = L2Cache(size_bytes=2 * 128, line_bytes=128, ways=2)
        # one set of 2 ways: fill with segments mapping to set 0
        s = l2.num_sets
        a, b, c = 0, s, 2 * s  # same set
        l2.probe(a)
        l2.probe(b)
        l2.probe(c)  # evicts a (LRU)
        assert l2.probe(b) is True
        assert l2.probe(a) is False

    def test_flush(self):
        l2 = L2Cache(4096, 128)
        l2.probe(1)
        l2.flush()
        assert l2.probe(1) is False


class TestMemorySystem:
    def test_miss_counts_dram_transaction(self):
        ms = MemorySystem(TINY, CostModel())
        cycles = ms.access_segments({1, 2, 3})
        assert ms.counters.dram_transactions == 3
        assert cycles == 3 * CostModel().dram_transaction_cycles

    def test_hit_is_cheaper(self):
        cost = CostModel()
        ms = MemorySystem(TINY, cost)
        ms.access_segments({7})
        cycles = ms.access_segments({7})
        assert cycles == cost.l2_hit_cycles
        assert ms.counters.l2_hits == 1

    def test_overhead_tagging(self):
        ms = MemorySystem(TINY, CostModel())
        ms.charge_overhead("swap", 24)
        ms.charge_overhead("swap", 6)
        ms.charge_overhead("launch-params", 2)
        assert ms.counters.overhead == {"swap": 30, "launch-params": 2}
        assert ms.counters.dram_transactions == 32

    def test_zero_overhead_ignored(self):
        ms = MemorySystem(TINY, CostModel())
        ms.charge_overhead("swap", 0)
        assert ms.counters.dram_transactions == 0

    def test_reset(self):
        ms = MemorySystem(TINY, CostModel())
        ms.access_segments({1})
        ms.reset()
        assert ms.counters.dram_transactions == 0
        assert ms.l2.probe(1) is False
