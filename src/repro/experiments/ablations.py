"""Design-choice ablations beyond the paper's own figures.

The paper fixes several microarchitectural parameters (candidate-window
size, state-buffer capacity, per-unit line fields, scheduling overhead,
PU count). These sweeps quantify each choice's contribution on our model —
the sensitivity studies DESIGN.md calls out.
"""

from __future__ import annotations

from ..core.mtpu import MTPUExecutor, PUConfig, TimingConfig
from ..core.scheduler import run_sequential, run_spatial_temporal
from ..evm.opcodes import Category
from ..workload import all_entry_function_calls, generate_dependency_block
from .common import (
    ExperimentResult,
    run_transactions,
    shared_deployment,
    single_pu_executor,
    trace_once,
)


def ablation_window_size(
    num_transactions: int = 48, seed: int = 400,
    windows: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Candidate-window (m) sensitivity of the spatio-temporal scheduler.

    A tiny window starves the PUs' selection (①/② in Fig. 6 see too few
    candidates); past ~2x the PU count, returns diminish — which is why
    the hardware tables can stay small.
    """
    block = generate_dependency_block(
        num_transactions=num_transactions, target_ratio=0.3, seed=seed
    )
    artifacts = trace_once(block.deployment.state, block.transactions)
    baseline = run_sequential(
        MTPUExecutor(artifacts, num_pus=1, pu_config=PUConfig()),
        block.transactions,
    )
    rows = []
    for window in windows:
        result = run_spatial_temporal(
            MTPUExecutor(artifacts, num_pus=4, pu_config=PUConfig()),
            block.transactions, block.dag_edges,
            window_size=window,
        )
        rows.append([window, baseline.makespan_cycles
                     / result.makespan_cycles,
                     f"{result.utilization:.0%}"])
    return ExperimentResult(
        experiment_id="Ablation W",
        title="Spatio-temporal speedup vs candidate-window size (4 PUs)",
        headers=["window m", "speedup", "utilization"],
        rows=rows,
    )


def ablation_state_buffer(
    seed: int = 410,
    capacities: tuple[int, ...] = (16, 64, 256, 1024, 4096),
) -> ExperimentResult:
    """State-buffer capacity vs warm-state hit behaviour (Table 5 sizes
    the buffer at 2MB; this shows why it need not be larger)."""
    deployment = shared_deployment()
    txs = []
    for name in ("TetherToken", "Dai", "FiatTokenProxy"):
        txs.extend(all_entry_function_calls(
            deployment, name, seed=seed, per_function=6
        ))
    artifacts = trace_once(deployment.state, txs)
    rows = []
    for entries in capacities:
        timing = TimingConfig(state_buffer_entries=entries)
        executor = single_pu_executor(artifacts, timing=timing)
        cycles, _ = run_transactions(executor)
        buffer = executor.state_buffer
        hit = buffer.hits / max(1, buffer.hits + buffer.misses)
        rows.append([entries, cycles, f"{hit:.0%}"])
    return ExperimentResult(
        experiment_id="Ablation SB",
        title="Cycles and warm-state hit rate vs state-buffer entries",
        headers=["entries", "cycles", "warm hits"],
        rows=rows,
    )


def ablation_unit_capacity(
    seed: int = 420, per_function: int = 4
) -> ExperimentResult:
    """Per-functional-unit line fields: how much line packing buys.

    The paper's fixed-length fields mean one instruction per unit per
    line; our default gives the stack/memory/ALU units extra ports (see
    fill_unit.DEFAULT_UNIT_CAPACITY). This sweep quantifies that choice.
    """
    deployment = shared_deployment()
    artifacts = trace_once(deployment.state, all_entry_function_calls(
        deployment, "TetherToken", seed=seed, per_function=per_function
    ))
    base_cycles, _ = run_transactions(
        single_pu_executor(artifacts, enable_db_cache=False)
    )

    configs = [
        ("1 field/unit (paper literal)", {}),
        ("stack x2", {Category.STACK: 2}),
        ("stack x2, mem x2", {Category.STACK: 2, Category.MEMORY: 2}),
        ("default (stack x3, mem/alu/logic x2)", None),
    ]
    rows = []
    for label, capacity in configs:
        cycles, _ = run_transactions(single_pu_executor(
            artifacts, perfect_cache=True, unit_capacity=capacity,
        ))
        rows.append([label, base_cycles / cycles])
    return ExperimentResult(
        experiment_id="Ablation UC",
        title="ILP upper bound vs per-unit line capacity (TetherToken)",
        headers=["line fields", "speedup"],
        rows=rows,
    )


def ablation_selection_overhead(
    num_transactions: int = 48, seed: int = 430,
    overheads: tuple[int, ...] = (0, 2, 8, 32, 128),
) -> ExperimentResult:
    """Scheduling-cost sensitivity: the paper argues selection is O(n)
    bit logic off the critical path; this shows when that stops being
    negligible."""
    block = generate_dependency_block(
        num_transactions=num_transactions, target_ratio=0.2, seed=seed
    )
    artifacts = trace_once(block.deployment.state, block.transactions)
    baseline = run_sequential(
        MTPUExecutor(artifacts, num_pus=1, pu_config=PUConfig()),
        block.transactions,
    )
    rows = []
    for overhead in overheads:
        result = run_spatial_temporal(
            MTPUExecutor(artifacts, num_pus=4, pu_config=PUConfig()),
            block.transactions, block.dag_edges,
            selection_overhead=overhead,
        )
        rows.append([overhead,
                     baseline.makespan_cycles / result.makespan_cycles])
    return ExperimentResult(
        experiment_id="Ablation SO",
        title="Speedup vs per-selection overhead cycles (4 PUs)",
        headers=["selection cycles", "speedup"],
        rows=rows,
    )


def ablation_pu_scaling(
    num_transactions: int = 64, seed: int = 440,
    pu_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """PU-count scaling on a low-dependency block: where the DAG and the
    shared state buffer stop scaling with area (Table 5 picked 4 PUs)."""
    block = generate_dependency_block(
        num_transactions=num_transactions, target_ratio=0.1, seed=seed
    )
    artifacts = trace_once(block.deployment.state, block.transactions)
    baseline = run_sequential(
        MTPUExecutor(artifacts, num_pus=1, pu_config=PUConfig()),
        block.transactions,
    )
    rows = []
    for count in pu_counts:
        result = run_spatial_temporal(
            MTPUExecutor(artifacts, num_pus=count, pu_config=PUConfig()),
            block.transactions, block.dag_edges,
        )
        rows.append([count,
                     baseline.makespan_cycles / result.makespan_cycles,
                     f"{result.utilization:.0%}"])
    return ExperimentResult(
        experiment_id="Ablation PU",
        title="Speedup vs PU count (10% dependency block)",
        headers=["PUs", "speedup", "utilization"],
        rows=rows,
    )
