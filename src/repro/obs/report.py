"""Per-block performance aggregation: the :class:`BlockPerfReport`.

One report captures everything the paper measures about a block in a
single JSON-serializable object: the headline speedup inputs (makespan
vs. sequentialized cycles), DB-cache behaviour, per-PU utilization,
per-transaction latency quantiles, scheduler counters, hotspot-optimizer
effectiveness, and the block's fault/degradation counters (shared with
:class:`repro.faults.DegradationReport` — both views increment the same
``faults.*`` registry series, see ``DegradationReport.count``).

Reports round-trip exactly through JSON (``from_json(to_json(r)) == r``),
which the metric-invariant suite asserts, and are the payload of the
``repro obs-report`` CLI subcommand.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .registry import delta, get_registry, percentile

#: Counter prefix whose label value is the opcode category.
_OPS_PREFIX = "evm.ops{category="


@dataclass
class LatencyReport:
    """A wall-latency distribution digest (milliseconds).

    The serving layer's SLO currency: the RPC server's end-to-end
    histogram, the load generator's per-request RTTs and the benchmark's
    ``serve`` section all reduce to this one JSON-round-trippable shape,
    so dashboards and regression gates compare like with like.
    """

    label: str = ""
    count: int = 0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0

    @classmethod
    def from_samples(cls, label: str, samples_ms: list) -> "LatencyReport":
        if not samples_ms:
            return cls(label=label)
        return cls(
            label=label,
            count=len(samples_ms),
            mean_ms=sum(samples_ms) / len(samples_ms),
            p50_ms=percentile(samples_ms, 50),
            p99_ms=percentile(samples_ms, 99),
            max_ms=max(samples_ms),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyReport":
        return cls(**{
            name: data[name]
            for name in cls.__dataclass_fields__
            if name in data
        })


def _opcode_categories(counter_delta: dict) -> dict:
    """Extract the per-category opcode mix from a counters delta."""
    categories: dict[str, int] = {}
    for key, value in counter_delta.items():
        if key.startswith(_OPS_PREFIX) and key.endswith("}"):
            categories[key[len(_OPS_PREFIX):-1]] = value
    return categories


@dataclass
class BlockPerfReport:
    """Everything measured about one block's execution."""

    label: str = ""
    num_transactions: int = 0
    num_pus: int = 0
    #: Parallel wall time of the block, in model cycles.
    makespan_cycles: int = 0
    #: Sum of per-transaction cycles (the single-PU equivalent).
    sequential_cycles: int = 0
    total_instructions: int = 0
    total_gas: int = 0
    utilization: float = 0.0
    redundancy_hit_ratio: float = 0.0
    #: Per-transaction latency in model cycles, execution order.
    tx_cycles: list = field(default_factory=list)
    #: DB-cache totals: lookups/hits/misses/insertions/evictions.
    cache: dict = field(default_factory=dict)
    #: Scheduler counters: admitted/commits/aborts/selections/occupancy.
    scheduler: dict = field(default_factory=dict)
    #: Per-PU rows: busy cycles, transactions, cache hit rate.
    pus: list = field(default_factory=list)
    #: Hotspot optimizer effectiveness counters.
    hotspot: dict = field(default_factory=dict)
    #: Fault/degradation counters (one source of truth with faults.*).
    degradation: dict = field(default_factory=dict)
    #: Executed-instruction mix per functional-unit category.
    opcode_categories: dict = field(default_factory=dict)
    #: Structured trace (span forest) of the block, when tracing was on.
    spans: list = field(default_factory=list)

    # -- derived -----------------------------------------------------------
    @property
    def headline_speedup(self) -> float:
        """Makespan speedup over fully sequentialized execution."""
        if not self.makespan_cycles:
            return 0.0
        return self.sequential_cycles / self.makespan_cycles

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache.get("lookups", 0)
        return self.cache.get("hits", 0) / lookups if lookups else 0.0

    @property
    def p50_tx_cycles(self):
        return percentile(self.tx_cycles, 50)

    @property
    def p99_tx_cycles(self):
        return percentile(self.tx_cycles, 99)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        data["derived"] = {
            "headline_speedup": self.headline_speedup,
            "cache_hit_rate": self.cache_hit_rate,
            "p50_tx_cycles": self.p50_tx_cycles,
            "p99_tx_cycles": self.p99_tx_cycles,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BlockPerfReport":
        fields_ = {
            name: data[name]
            for name in cls.__dataclass_fields__
            if name in data
        }
        return cls(**fields_)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BlockPerfReport":
        return cls.from_dict(json.loads(text))

    # -- construction ------------------------------------------------------
    @classmethod
    def from_execution(
        cls,
        label: str,
        schedule,
        executor,
        degradation=None,
        counters_before: dict | None = None,
        spans: list | None = None,
    ) -> "BlockPerfReport":
        """Aggregate a finished block run into one report.

        *schedule* is a ``ScheduleResult``, *executor* the
        ``MTPUExecutor`` that ran it (both duck-typed — obs stays
        dependency-free below the core packages). *counters_before* is a
        ``registry.counters_flat()`` snapshot taken before the run; the
        delta against the active registry supplies the opcode mix.
        """
        executions = schedule.executions
        cache_totals = {
            "lookups": 0, "hits": 0, "misses": 0,
            "insertions": 0, "evictions": 0,
        }
        pu_rows = []
        for pu in executor.pus:
            stats = pu.db_cache.stats
            cache_totals["lookups"] += stats.accesses
            cache_totals["hits"] += stats.hits
            cache_totals["misses"] += stats.misses
            cache_totals["insertions"] += stats.insertions
            cache_totals["evictions"] += stats.evictions
            pu_rows.append({
                "pu": pu.pu_id,
                "busy_cycles": pu.busy_cycles,
                "transactions": pu.transactions_executed,
                "cache_hit_rate": stats.hit_ratio,
            })

        counter_delta: dict = {}
        registry = get_registry()
        if registry.enabled and counters_before is not None:
            counter_delta = delta(
                counters_before, registry.counters_flat()
            )

        hotspot = {
            "plans_applied": sum(
                1 for e in executions if e.hotspot_applied
            ),
            "stale_chunks_discarded": executor.stale_chunks_discarded,
            "prefetch_hits": sum(
                e.timing.prefetch_hits for e in executions
            ),
        }
        if spans is None:
            from .tracing import get_tracer

            tracer = get_tracer()
            spans = tracer.to_dicts() if tracer.enabled else []

        return cls(
            label=label,
            num_transactions=len(executions),
            num_pus=schedule.num_pus,
            makespan_cycles=schedule.makespan_cycles,
            sequential_cycles=sum(e.cycles for e in executions),
            total_instructions=schedule.total_instructions,
            total_gas=sum(e.receipt.gas_used for e in executions),
            utilization=schedule.utilization,
            redundancy_hit_ratio=schedule.redundancy_hit_ratio,
            tx_cycles=[e.cycles for e in executions],
            cache=cache_totals,
            scheduler=dict(getattr(schedule, "scheduler_stats", {})),
            pus=pu_rows,
            hotspot=hotspot,
            degradation=(
                degradation.as_dict() if degradation is not None else {}
            ),
            opcode_categories=_opcode_categories(counter_delta),
            spans=list(spans),
        )
