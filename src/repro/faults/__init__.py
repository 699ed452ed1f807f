"""Fault injection and graceful-degradation observability.

The paper's co-design trusts its inputs: consensus-stage nodes embed a
dependency DAG in each block and validators execute it on the MTPU,
checking only the receipts digest. This package supplies the adversary
(:class:`FaultInjector`, driven by a declarative seeded
:class:`FaultPlan`) and the accounting (:class:`DegradationReport`) that
let the rest of the system prove it degrades gracefully instead:
corrupted DAGs are rebuilt, dead PUs are drained onto survivors, bogus
claimed roots are refused with nothing committed, hostile transactions
are refused at admission, and crash faults against the durable store
(:class:`StorageCorruption`) recover to a bit-identical state.
"""

from .injector import FaultInjector, SimulatedCrashError
from .plan import (
    PU_DEAD,
    PU_STALL,
    DagCorruption,
    FaultPlan,
    NetworkFault,
    PUFault,
    StorageCorruption,
    TxCorruption,
)
from .report import DegradationReport

__all__ = [
    "DagCorruption",
    "DegradationReport",
    "FaultInjector",
    "FaultPlan",
    "NetworkFault",
    "PUFault",
    "PU_DEAD",
    "PU_STALL",
    "SimulatedCrashError",
    "StorageCorruption",
    "TxCorruption",
]
