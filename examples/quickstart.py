#!/usr/bin/env python3
"""Quickstart: accelerate one block of smart-contract transactions.

Builds the synthetic mainnet, generates a block of transactions,
executes it once (traced), and times that execution three ways on the
MTPU — sequentially (the baseline every real node uses today), with
barrier-round parallelism, and with the paper's spatio-temporal
scheduler on 4 PUs — checking that no schedule reorders a conflicting
pair of transactions.

Run:  python examples/quickstart.py
"""

from repro import build_deployment, generate_block
from repro.chain.dag import check_schedule_order, discover_access_sets
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)


def main() -> None:
    print("deploying the contract suite...")
    deployment = build_deployment()

    print("generating a 60-transaction block (Zipf-skewed TOP8 mix)...")
    block = generate_block(deployment, num_transactions=60, seed=7)
    print(f"  contracts hit: {block.redundancy_histogram()}")
    print(f"  dependency ratio: {block.measured_dependency_ratio:.2f}")
    print(f"  TOP5 share: {block.top_k_share(5):.0%} "
          "(paper observes 37% on mainnet)")

    print("\nexecuting...")
    artifacts = discover_access_sets(
        block.transactions, deployment.state.copy(), trace=True
    )

    def executor(num_pus: int) -> MTPUExecutor:
        return MTPUExecutor(artifacts, num_pus=num_pus, pu_config=PUConfig())

    seq = run_sequential(executor(1), block.transactions)
    sync = run_synchronous(executor(4), block.transactions,
                           block.dag_edges)
    st = run_spatial_temporal(executor(4), block.transactions,
                              block.dag_edges)

    for result in (seq, sync, st):
        check_schedule_order(
            block.transactions, artifacts, result.executions
        )

    print(f"  sequential 1 PU     : {seq.makespan_cycles:>8} cycles "
          "(baseline)")
    print(f"  synchronous 4 PUs   : {sync.makespan_cycles:>8} cycles "
          f"({seq.makespan_cycles / sync.makespan_cycles:.2f}x)")
    print(f"  spatio-temporal 4 PU: {st.makespan_cycles:>8} cycles "
          f"({seq.makespan_cycles / st.makespan_cycles:.2f}x, "
          f"utilization {st.utilization:.0%}, "
          f"redundant picks {st.redundancy_hit_ratio:.0%})")
    print("\nall receipts identical across schedules — serializability "
          "holds.")


if __name__ == "__main__":
    main()
