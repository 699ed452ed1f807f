"""Instruction-level experiments: Fig. 12, Fig. 13, Table 7."""

from __future__ import annotations

from ..workload import all_entry_function_calls
from .common import (
    CONTRACT_ABBREVIATIONS,
    TABLE7_ORDER,
    ExperimentResult,
    run_transactions,
    shared_deployment,
    single_pu_executor,
    trace_once,
)

#: Paper Table 7: contract -> (upper IPC, upper speedup, 2K IPC,
#: 2K speedup).
PAPER_TABLE7 = {
    "TetherToken": (3.53, 1.88, 2.73, 1.67),
    "FiatTokenProxy": (4.06, 1.85, 3.50, 1.69),
    "UniswapV2Router02": (3.94, 2.02, 3.57, 1.96),
    "OpenSea": (3.70, 2.40, 3.23, 2.23),
    "LinkToken": (3.47, 1.98, 2.91, 1.80),
    "SwapRouter": (3.94, 2.00, 2.68, 1.69),
    "Dai": (3.91, 2.11, 2.90, 1.82),
    "MainchainGatewayProxy": (3.53, 1.64, 2.87, 1.53),
}


def _ablation_cycles(artifacts, **config_kwargs) -> tuple[int, int]:
    return run_transactions(single_pu_executor(artifacts, **config_kwargs))


def fig12_ilp_ablation(
    per_function: int = 2, seed: int = 0
) -> ExperimentResult:
    """Fig. 12: upper-bound speedups from F&D, DF and IF (100% hit)."""
    deployment = shared_deployment()
    headers = ["Smart Contract", "F&D", "F&D+DF", "F&D+DF+IF"]
    rows = []
    for name, label in CONTRACT_ABBREVIATIONS.items():
        artifacts = trace_once(deployment.state, all_entry_function_calls(
            deployment, name, seed=seed, per_function=per_function
        ))
        base, _ = _ablation_cycles(artifacts, enable_db_cache=False)
        fd, _ = _ablation_cycles(
            artifacts, perfect_cache=True,
            enable_forwarding=False, enable_folding=False,
        )
        df, _ = _ablation_cycles(
            artifacts, perfect_cache=True, enable_folding=False
        )
        all_on, _ = _ablation_cycles(artifacts, perfect_cache=True)
        rows.append([label, base / fd, base / df, base / all_on])
    averages = [
        sum(row[i] for row in rows) / len(rows) for i in (1, 2, 3)
    ]
    rows.append(["Avg", *averages])
    return ExperimentResult(
        experiment_id="Fig. 12",
        title="ILP upper-bound speedup per optimization "
              "(fill unit + DB cache, + data forwarding, "
              "+ instruction folding)",
        headers=headers,
        rows=rows,
        notes="paper: IF averages 1.99x across the TOP8 "
              "(per-contract 1.64x-2.40x)",
        paper_reference={
            "avg_speedup_if": 1.99,
            "per_contract_upper": {
                k: v[1] for k, v in PAPER_TABLE7.items()
            },
        },
    )


#: Cache sizes swept in Fig. 13 (entries). Our synthetic contracts are
#: a few times smaller than the paper's mainnet bytecode, so their
#: working sets saturate at proportionally smaller caches; the sweep
#: starts lower to expose the ramp.
FIG13_SIZES = [16, 32, 64, 128, 256, 512, 1024, 2048]


def fig13_cache_hit_ratio(
    per_function: int = 12, seed: int = 0,
    sizes: list[int] | None = None,
) -> ExperimentResult:
    """Fig. 13: DB-cache hit ratio vs cache size for redundant batches.

    Per-contract rows use batches of transactions invoking that contract
    (the paper's setup); the final row interleaves all eight contracts on
    one PU — the regime where capacity misses dominate until the cache
    holds the combined working set.
    """
    deployment = shared_deployment()
    sizes = sizes or FIG13_SIZES
    headers = ["Smart Contract"] + [str(s) for s in sizes]
    rows = []
    mixed_txs = []
    for name, label in CONTRACT_ABBREVIATIONS.items():
        txs = all_entry_function_calls(
            deployment, name, seed=seed, per_function=per_function
        )
        mixed_txs.extend(txs)
        artifacts = trace_once(deployment.state, txs)
        ratios = []
        for entries in sizes:
            executor = single_pu_executor(artifacts, cache_entries=entries)
            run_transactions(executor)
            ratios.append(executor.pus[0].db_cache.stats.hit_ratio)
        rows.append([label] + [f"{100 * r:.1f}%" for r in ratios])

    # Interleave contracts round-robin for the mixed row.
    import random as _random

    _random.Random(seed).shuffle(mixed_txs)
    mixed = trace_once(deployment.state, mixed_txs)
    mixed_ratios = []
    for entries in sizes:
        executor = single_pu_executor(mixed, cache_entries=entries)
        run_transactions(executor)
        mixed_ratios.append(executor.pus[0].db_cache.stats.hit_ratio)
    rows.append(
        ["Mixed TOP8"] + [f"{100 * r:.1f}%" for r in mixed_ratios]
    )
    return ExperimentResult(
        experiment_id="Fig. 13",
        title="DB-cache hit ratio vs size "
              "(batch of transactions per contract)",
        headers=headers,
        rows=rows,
        notes="paper: hit rate rises with size and stabilizes around "
              "85% at 2K entries; residual misses are cold misses",
        paper_reference={"hit_at_2k": 0.85},
    )


def table7_ipc(
    per_function: int = 12, seed: int = 0
) -> ExperimentResult:
    """Table 7: IPC and speedup at 2K entries vs the upper limit.

    IPC here is original trace instructions per cycle (folded PUSHes
    count as executed instructions, matching the paper's accounting of
    the synthesized instructions). Note the paper's absolute IPC values
    imply a baseline normalization we cannot reconstruct exactly
    (see EXPERIMENTS.md); the speedup columns are directly comparable.
    """
    deployment = shared_deployment()
    headers = [
        "Smart Contract",
        "Upper IPC", "Upper speedup", "2K IPC", "2K speedup",
        "IPC loss", "speedup loss",
    ]
    rows = []
    losses = []
    for name in TABLE7_ORDER:
        label = CONTRACT_ABBREVIATIONS[name]
        artifacts = trace_once(deployment.state, all_entry_function_calls(
            deployment, name, seed=seed, per_function=per_function
        ))
        base_cycles, _ = _ablation_cycles(artifacts, enable_db_cache=False)
        upper_cycles, instructions = _ablation_cycles(
            artifacts, perfect_cache=True
        )
        real_cycles, _ = _ablation_cycles(artifacts, cache_entries=2048)
        upper_ipc = instructions / upper_cycles
        real_ipc = instructions / real_cycles
        upper_speedup = base_cycles / upper_cycles
        real_speedup = base_cycles / real_cycles
        ipc_loss = (real_ipc - upper_ipc) / upper_ipc
        speedup_loss = (real_speedup - upper_speedup) / upper_speedup
        losses.append((ipc_loss, speedup_loss))
        rows.append([
            label, upper_ipc, upper_speedup, real_ipc, real_speedup,
            f"{100 * ipc_loss:.2f}%", f"{100 * speedup_loss:.2f}%",
        ])
    avg_ipc_loss = sum(l[0] for l in losses) / len(losses)
    avg_speedup_loss = sum(l[1] for l in losses) / len(losses)
    rows.append([
        "Avg", "-", "-", "-", "-",
        f"{100 * avg_ipc_loss:.2f}%", f"{100 * avg_speedup_loss:.2f}%",
    ])
    return ExperimentResult(
        experiment_id="Table 7",
        title="Single-PU performance at 2K cache entries vs upper limit",
        headers=headers,
        rows=rows,
        notes="paper: avg losses -18.99% (IPC) / -9.36% (speedup); "
              "avg 2K speedup 1.80x",
        paper_reference={"table": PAPER_TABLE7,
                         "avg_speedup_2k": 1.80,
                         "avg_speedup_loss": -0.0936},
    )
