"""``repro.obs`` — the unified observability layer.

Three pieces, all dependency-free and zero-cost when disabled:

* :mod:`~repro.obs.registry` — labeled counters/gauges/histograms behind
  a process-wide registry (a no-op registry is the default; install a
  real one with :func:`use_registry`).
* :mod:`~repro.obs.tracing` — span-based structured tracing with a
  deterministic :class:`LogicalClock` option for golden fixtures.
* :mod:`~repro.obs.report` — :class:`BlockPerfReport`, the per-block
  aggregation that serializes every measured property of a block run.

Quickstart::

    from repro.obs import use_registry, use_tracing

    with use_registry() as reg, use_tracing() as spans:
        node.execute_block(block, executor="mtpu")
    print(reg.snapshot()["counters"]["sched.makespan_cycles"])
    print(reg.snapshot()["counters"]["db_cache.hits{pu=0}"])
"""

from .instrument import count, observe, timed
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    delta,
    flat_key,
    get_registry,
    percentile,
    set_registry,
    use_registry,
)
from .report import BlockPerfReport, LatencyReport
from .tracing import (
    NULL_TRACER,
    LogicalClock,
    NullSpanTracer,
    Span,
    SpanTracer,
    get_tracer,
    set_tracer,
    use_tracing,
)

__all__ = [
    "BlockPerfReport",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyReport",
    "LogicalClock",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullSpanTracer",
    "Span",
    "SpanTracer",
    "count",
    "delta",
    "flat_key",
    "get_registry",
    "get_tracer",
    "observe",
    "percentile",
    "set_registry",
    "set_tracer",
    "timed",
    "use_registry",
    "use_tracing",
]
