"""repro — a full-system reproduction of "An Algorithm and Architecture
Co-design for Accelerating Smart Contracts in Blockchain" (ISCA 2023).

Public API tour:

* :mod:`repro.evm` — the smart-contract VM (opcode set, interpreter,
  dataflow tracer).
* :mod:`repro.chain` — blockchain substrate (state, transactions, blocks,
  dependency-DAG discovery, three-stage node).
* :mod:`repro.contracts` — assembler, contract compiler, and the TOP8
  contract suite with a deployable genesis world.
* :mod:`repro.workload` — block generators with controlled redundancy,
  dependency ratio and ERC20 proportion.
* :mod:`repro.core.mtpu` — the MTPU microarchitecture model (fill unit,
  DB cache, pipeline timing, memory hierarchy, area model).
* :mod:`repro.core.scheduler` — the spatio-temporal scheduling algorithm
  and the synchronous/sequential baselines.
* :mod:`repro.core.hotspot` — hotspot contract optimization (chunking,
  pre-execution, constant elimination, prefetching).
* :mod:`repro.baselines` — the BPU comparator model.
* :mod:`repro.analysis` — instruction mixes and context-load breakdowns.
* :mod:`repro.faults` — fault injection (corrupted DAGs/roots, hostile
  transactions, PU failures, stale profiles) and the ``faults.*``
  robustness counters (:class:`~repro.faults.DegradationReport`).

Quickstart::

    from repro import build_deployment, generate_dependency_block
    from repro.core.mtpu import MTPUExecutor, PUConfig
    from repro.core.scheduler import run_sequential, run_spatial_temporal

    block = generate_dependency_block(num_transactions=64,
                                      target_ratio=0.3, seed=1)
    state = block.deployment.state
    seq = run_sequential(
        MTPUExecutor(state.copy(), num_pus=1), block.transactions)
    par = run_spatial_temporal(
        MTPUExecutor(state.copy(), num_pus=4),
        block.transactions, block.dag_edges)
    print(f"speedup: {seq.makespan_cycles / par.makespan_cycles:.2f}x")
"""

from .chain import Block, Transaction, WorldState
from .contracts import Deployment, build_deployment, compile_suite
from .core.hotspot import HotspotOptimizer, HotspotTracker
from .core.mtpu import MTPUExecutor, PUConfig, TimingConfig, estimate_area
from .core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from .evm import EVM, Tracer
from .faults import DegradationReport, FaultInjector, FaultPlan
from .workload import (
    GeneratedBlock,
    generate_block,
    generate_dependency_block,
    generate_erc20_block,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Transaction",
    "WorldState",
    "Deployment",
    "build_deployment",
    "compile_suite",
    "HotspotOptimizer",
    "HotspotTracker",
    "MTPUExecutor",
    "PUConfig",
    "TimingConfig",
    "estimate_area",
    "run_sequential",
    "run_spatial_temporal",
    "run_synchronous",
    "EVM",
    "Tracer",
    "DegradationReport",
    "FaultInjector",
    "FaultPlan",
    "GeneratedBlock",
    "generate_block",
    "generate_dependency_block",
    "generate_erc20_block",
    "__version__",
]
