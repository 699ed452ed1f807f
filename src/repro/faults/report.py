"""Degradation observability: the robustness counters.

Every defensive layer counts what it saw into the ``faults.<name>``
series of the active :class:`repro.obs.MetricsRegistry` instead of
logging, so a node operator (or a test) can assert exactly which faults
were seen and which recovery path handled them. ``Node.execute_block``'s
engines publish a shipped DAG's verdict (``mtpu``, ``parallel``) and the
schedule's PU faults (``mtpu``) there;
:meth:`DegradationReport.from_registry` reads them back as one object. A report handed to
:func:`~repro.core.scheduler.run_spatial_temporal` counts one run on its
own fields *and* the series (:meth:`DegradationReport.count`), so the
two cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..obs import get_registry


@dataclass
class DegradationReport:
    """Counters: faults seen, recovery work done."""

    #: Block-embedded DAGs that failed verification (cycle, missing
    #: dependency coverage, or spurious/out-of-range edges).
    dag_faults_detected: int = 0
    #: DAGs rebuilt locally after a failed verification.
    dag_rebuilds: int = 0
    #: PUs that died permanently mid-schedule.
    pu_failures_detected: int = 0
    #: PUs that stalled transiently and later recovered.
    pu_stalls_detected: int = 0
    #: In-flight transactions re-enqueued onto surviving PUs.
    txs_rescheduled: int = 0
    #: Cycles lost to failed/stalled PUs (wasted partial work + stall time).
    recovery_cycles: int = 0

    def count(self, name: str, amount: int = 1) -> None:
        """Increment one counter *and* its ``faults.<name>`` metric series.

        Field assignment stays available for tests that construct
        expected reports by hand.
        """
        setattr(self, name, getattr(self, name) + amount)
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults." + name).inc(amount)

    @classmethod
    def from_registry(cls, registry) -> "DegradationReport":
        """Rebuild a report from the registry's ``faults.*`` totals."""
        report = cls()
        for spec in fields(report):
            setattr(report, spec.name, registry.total("faults." + spec.name))
        return report

    def as_dict(self) -> dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def __str__(self) -> str:
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        if not nonzero:
            return "DegradationReport(clean)"
        inner = ", ".join(f"{k}={v}" for k, v in nonzero.items())
        return f"DegradationReport({inner})"
