"""``repro.parallel`` — the multicore parallel execution backend.

Where :mod:`repro.core.scheduler` *models* transaction-level parallelism
in simulated PU cycles, this package *runs* it: DAG-independent
transactions execute concurrently across a persistent pool of worker
processes (or inline, with the ``serial`` backend), and the coordinator
merges their write journals back into the authoritative world state.
Combined with the execute-once artifacts from
:func:`repro.chain.dag.discover_access_sets`, wall-clock block
throughput stops paying the discover-then-execute 2× tax and scales
with the cores the machine actually has.
"""

from .executor import (
    AccessMismatch,
    ParallelBlockExecutor,
    ParallelBlockResult,
)
from .speculate import (
    MultiVersionStore,
    SpeculativeBlockExecutor,
    SpeculativeBlockResult,
)

__all__ = [
    "AccessMismatch",
    "MultiVersionStore",
    "ParallelBlockExecutor",
    "ParallelBlockResult",
    "SpeculativeBlockExecutor",
    "SpeculativeBlockResult",
]
