"""DB cache: LRU behavior, stats, single-instruction side records."""

import pytest

from repro.contracts.asm import assemble
from repro.core.mtpu.db_cache import DBCache
from repro.core.mtpu.fill_unit import build_line
from repro.evm.decoded import build_program


def make_line(start_pc=0, source="PUSH 1\nPUSH 2\nADD\nSTOP",
              code_address=1):
    return build_line(code_address, build_program(assemble(source)), start_pc)


def single_line(code_address=1):
    return build_line(code_address, build_program(assemble("STOP")), 0)


class TestLookup:
    def test_miss_then_hit(self):
        cache = DBCache(entries=4)
        line = make_line()
        assert cache.lookup(1, 0) is None
        cache.insert(line)
        assert cache.lookup(1, 0) is line
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_keyed_by_code_address(self):
        cache = DBCache(entries=4)
        cache.insert(make_line(code_address=1))
        assert cache.lookup(2, 0) is None

    def test_peek_does_not_count(self):
        cache = DBCache(entries=4)
        cache.insert(make_line())
        cache.peek(1, 0)
        assert cache.stats.accesses == 0


class TestLRU:
    def test_eviction_order(self):
        cache = DBCache(entries=2)
        sources = {
            0: "PUSH 1\nPUSH 2\nADD\nSTOP",
        }
        lines = []
        # Three distinct lines at different code addresses.
        for address in (10, 11, 12):
            line = make_line(code_address=address)
            lines.append(line)
            cache.insert(line)
        assert len(cache) == 2
        assert cache.peek(10, 0) is None  # oldest evicted
        assert cache.peek(12, 0) is not None
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = DBCache(entries=2)
        cache.insert(make_line(code_address=1))
        cache.insert(make_line(code_address=2))
        cache.lookup(1, 0)  # refresh 1
        cache.insert(make_line(code_address=3))
        assert cache.peek(1, 0) is not None
        assert cache.peek(2, 0) is None

    def test_reinsert_replaces(self):
        cache = DBCache(entries=4)
        old = make_line()
        cache.insert(old)
        new = make_line()
        cache.insert(new)
        assert cache.peek(1, 0) is new

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DBCache(entries=0)


class TestSingles:
    def test_single_instruction_lines_not_cached(self):
        cache = DBCache(entries=4)
        cache.insert(single_line())
        assert len(cache) == 0
        assert cache.stats.single_instruction_lines == 1
        # But their addresses are recorded for hotspot path tracking.
        assert (1, 0) in cache.single_records


class TestInvalidation:
    def test_invalidate_all(self):
        cache = DBCache(entries=4)
        cache.insert(make_line())
        cache.invalidate()
        assert len(cache) == 0
        assert cache.peek(1, 0) is None

    def test_invalidate_code_is_selective(self):
        cache = DBCache(entries=4)
        cache.insert(make_line(code_address=1))
        cache.insert(make_line(code_address=2))
        cache.invalidate_code(1)
        assert cache.peek(1, 0) is None
        assert cache.peek(2, 0) is not None

    def test_stats_reset(self):
        cache = DBCache(entries=4)
        cache.lookup(1, 0)
        cache.stats.reset()
        assert cache.stats.accesses == 0
