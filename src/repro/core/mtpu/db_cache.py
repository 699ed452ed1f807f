"""The decoded-bytecode cache (DB cache, paper section 3.3.3).

An LRU cache of :class:`~repro.core.mtpu.fill_unit.DBCacheLine` objects
keyed by (code address, start pc). "Each line is identified by the address
of the first filled instruction. If the address of the next instruction
hits a line in the DB cache, all instructions of this line will take
precedence over the normal execution path and skip the decoding stage."

Single-instruction lines are never cached; their addresses go to a small
side table so the hotspot profiler can keep a complete execution path
(paper section 3.4.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ...obs import get_registry
from .fill_unit import DBCacheLine


@dataclass
class CacheStats:
    """Hit/miss accounting, per PU."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    single_instruction_lines: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.single_instruction_lines = 0


class DBCache:
    """Fully-associative LRU cache of decoded-bytecode lines."""

    def __init__(self, entries: int = 2048, pu_id: int | None = None) -> None:
        if entries <= 0:
            raise ValueError("cache needs at least one entry")
        self.entries = entries
        self._lines: OrderedDict[tuple[int, int], DBCacheLine] = (
            OrderedDict()
        )
        #: Side records of single-instruction addresses (hotspot tracking).
        self.single_records: set[tuple[int, int]] = set()
        self.stats = CacheStats()
        # Metric handles resolve once here; under the default no-op
        # registry these are shared null singletons and every inc() below
        # is a no-op call.
        registry = get_registry()
        labels = {} if pu_id is None else {"pu": str(pu_id)}
        self._m_lookups = registry.counter("db_cache.lookups", **labels)
        self._m_hits = registry.counter("db_cache.hits", **labels)
        self._m_misses = registry.counter("db_cache.misses", **labels)
        self._m_insertions = registry.counter(
            "db_cache.insertions", **labels
        )
        self._m_evictions = registry.counter("db_cache.evictions", **labels)

    def __len__(self) -> int:
        return len(self._lines)

    def note_hit(self) -> None:
        """Account one probe that hit (all hit paths funnel here)."""
        self.stats.hits += 1
        self._m_lookups.inc()
        self._m_hits.inc()

    def note_miss(self) -> None:
        """Account one probe that missed."""
        self.stats.misses += 1
        self._m_lookups.inc()
        self._m_misses.inc()

    def lookup(self, code_address: int, pc: int) -> DBCacheLine | None:
        """Probe the cache; counts a hit or miss."""
        key = (code_address, pc)
        line = self._lines.get(key)
        if line is not None:
            self._lines.move_to_end(key)
            self.note_hit()
            return line
        self.note_miss()
        return None

    def peek(self, code_address: int, pc: int) -> DBCacheLine | None:
        """Probe without disturbing LRU order or stats."""
        return self._lines.get((code_address, pc))

    def insert(self, line: DBCacheLine) -> None:
        """Insert a freshly filled line (evicting LRU on overflow)."""
        if not line.cacheable:
            self.stats.single_instruction_lines += 1
            self.single_records.add((line.code_address, line.start_pc))
            return
        key = (line.code_address, line.start_pc)
        if key in self._lines:
            # Refill replaces the resident line (e.g. after the hotspot
            # optimizer swapped in an eliminated decode view).
            self._lines[key] = line
            self._lines.move_to_end(key)
            return
        self._lines[key] = line
        self.stats.insertions += 1
        self._m_insertions.inc()
        if len(self._lines) > self.entries:
            self._lines.popitem(last=False)
            self.stats.evictions += 1
            self._m_evictions.inc()

    def invalidate(self) -> None:
        """Drop all lines (e.g. between unrelated experiments)."""
        self._lines.clear()
        self.single_records.clear()

    def invalidate_code(self, code_address: int) -> None:
        """Drop every line of one contract (its decode view changed)."""
        stale = [key for key in self._lines if key[0] == code_address]
        for key in stale:
            del self._lines[key]
