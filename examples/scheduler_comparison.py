#!/usr/bin/env python3
"""Scheduler shoot-out across the dependency spectrum.

Reproduces the paper's Figs. 14-16 story interactively: sweeps the
dependency ratio, runs every scheduler/feature combination, and prints
speedup and utilization side by side. Watch the spatio-temporal
scheduler's advantage open up at mid ratios and the redundancy/hotspot
optimizations stack on top.

Run:  python examples/scheduler_comparison.py [num_txs] [num_pus]
"""

import sys

from repro.chain.dag import discover_access_sets
from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from repro.workload import all_entry_function_calls, generate_dependency_block
from repro.workload.generator import INDEPENDENT_TOKENS


def main() -> None:
    num_txs = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    num_pus = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    header = (f"{'dep':>5} {'cpath':>5} | {'sync':>5} {'ST':>5} "
              f"{'ST+Re':>6} {'+Hot':>6} | {'util(ST)':>8}")
    print(f"schedulers on {num_txs}-tx blocks, {num_pus} PUs "
          "(speedup over a no-reuse sequential PU)")
    print(header)
    print("-" * len(header))

    for i, ratio in enumerate((0.0, 0.2, 0.4, 0.6, 0.8, 1.0)):
        block = generate_dependency_block(
            num_transactions=num_txs, target_ratio=ratio, seed=300 + i
        )
        deployment = block.deployment

        optimizer = HotspotOptimizer(deployment.state)
        for name in INDEPENDENT_TOKENS:
            optimizer.optimize_contract(
                deployment.address_of(name),
                all_entry_function_calls(deployment, name, seed=1),
            )

        artifacts = discover_access_sets(
            block.transactions, deployment.state.copy(), trace=True
        )

        def run(runner, pus, hotspot=None, **pu_kwargs):
            executor = MTPUExecutor(
                artifacts, num_pus=pus, pu_config=PUConfig(**pu_kwargs),
                hotspot_optimizer=hotspot,
            )
            if runner is run_sequential:
                return runner(executor, block.transactions)
            return runner(executor, block.transactions, block.dag_edges)

        baseline = run(run_sequential, 1, redundancy_reuse=False)
        sync = run(run_synchronous, num_pus, redundancy_reuse=False)
        st = run(run_spatial_temporal, num_pus, redundancy_reuse=False)
        st_reuse = run(run_spatial_temporal, num_pus)
        st_hot = run(run_spatial_temporal, num_pus, hotspot=optimizer)

        from repro.chain.dag import critical_path_length

        cpath = critical_path_length(
            len(block.transactions), block.dag_edges
        )
        base = baseline.makespan_cycles
        print(
            f"{block.measured_dependency_ratio:5.2f} {cpath:5d} | "
            f"{base / sync.makespan_cycles:5.2f} "
            f"{base / st.makespan_cycles:5.2f} "
            f"{base / st_reuse.makespan_cycles:6.2f} "
            f"{base / st_hot.makespan_cycles:6.2f} | "
            f"{st_hot.utilization:8.0%}"
        )

    print("\ncolumns: sync = barrier rounds; ST = spatio-temporal "
          "scheduling;\nST+Re = +DB-cache/context reuse; "
          "+Hot = +hotspot optimization (paper Fig. 16b)")


if __name__ == "__main__":
    main()
