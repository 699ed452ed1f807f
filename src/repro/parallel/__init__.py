"""``repro.parallel`` — the wall-clock engines ``parallel`` and ``occ``.

Where :mod:`repro.core.scheduler` *models* transaction-level parallelism
in simulated PU cycles, this package runs a block in one process, on
the same sequential contract: :class:`ParallelBlockExecutor` replays the
execute-once artifacts from :func:`repro.chain.dag.discover_access_sets`
and validates declared access sets, and :class:`SpeculativeBlockExecutor`
speculates Block-STM style with no declared sets at all. Both leave
receipts and state bit-identical to sequential execution.
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
