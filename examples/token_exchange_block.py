#!/usr/bin/env python3
"""A DeFi trading day: tokens, AMM swaps, and an NFT sale in one block.

Walks the full three-stage node pipeline the paper describes (Fig. 4):

1. **Dissemination** — users broadcast approvals, swaps on both routers,
   stablecoin transfers and a marketplace purchase.
2. **Consensus** — the proposer packages them with the dependency DAG.
3. **Execution** — a validator executes the block once and times it on
   a hotspot-optimized 4-PU MTPU, reporting throughput at the paper's
   300 MHz clock.

Run:  python examples/token_exchange_block.py
"""

import random

from repro import build_deployment
from repro.chain.dag import discover_access_sets
from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.contracts import registry
from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import run_sequential, run_spatial_temporal
from repro.evm import abi
from repro.workload import ActionLibrary, all_entry_function_calls

CLOCK_HZ = 300_000_000  # the paper's synthesis point
BLOCK_INTERVAL_S = 13.0


def build_trading_block(node: Node, deployment, rng) -> None:
    """Disseminate a realistic mix of DeFi transactions."""
    library = ActionLibrary(deployment, rng)
    accounts = deployment.accounts

    # A burst of stablecoin transfers (the redundant hotspot traffic).
    for _ in range(20):
        node.hear(library.to_transaction(library.plan("TetherToken")))
        node.hear(library.to_transaction(library.plan("Dai")))

    # Swappers hit both routers.
    for _ in range(8):
        node.hear(library.to_transaction(
            library.plan("UniswapV2Router02")))
        node.hear(library.to_transaction(library.plan("SwapRouter")))

    # One collector buys an NFT; a whale bridges funds out.
    node.hear(library.to_transaction(library.plan("OpenSea")))
    node.hear(library.to_transaction(
        library.plan("MainchainGatewayProxy")))

    # And someone wraps ether by hand (raw transaction construction).
    from repro.chain import Transaction

    whale = accounts[0]
    node.hear(Transaction(
        sender=whale, to=registry.WETH, value=10**9,
        data=abi.encode_call("deposit()"), gas_limit=200_000,
        tags={"contract": "WETH9", "signature": "deposit()",
              "is_erc20": True},
    ))


def main() -> None:
    rng = random.Random(2023)
    deployment = build_deployment()
    node = Node(state=deployment.state.copy())

    print("== dissemination ==")
    build_trading_block(node, deployment, rng)
    print(f"mempool: {len(node.mempool)} transactions")

    print("\n== consensus ==")
    block = node.propose_block()
    print(f"block #{block.header.height}: {len(block.transactions)} txs, "
          f"{len(block.dag_edges)} DAG edges "
          f"(dependency ratio "
          f"{len({j for _, j in block.dag_edges}) / len(block.transactions):.0%})")

    print("\n== execution (validator with a 4-PU MTPU) ==")
    # The idle slice before the block arrives: optimize the hotspots.
    optimizer = HotspotOptimizer(deployment.state)
    for name in ("TetherToken", "Dai", "UniswapV2Router02"):
        samples = all_entry_function_calls(deployment, name, seed=1)
        optimizer.optimize_contract(deployment.address_of(name), samples)
    print(f"hotspot contract table: {len(optimizer.contract_table)} "
          "(contract, function) profiles")

    artifacts = discover_access_sets(
        block.transactions, deployment.state.copy(), trace=True
    )
    baseline = run_sequential(
        MTPUExecutor(artifacts, num_pus=1,
                     pu_config=PUConfig(enable_db_cache=False,
                                        redundancy_reuse=False)),
        block.transactions,
    )
    accelerated = run_spatial_temporal(
        MTPUExecutor(artifacts, num_pus=4,
                     pu_config=PUConfig(), hotspot_optimizer=optimizer),
        block.transactions, block.dag_edges,
    )

    # The unaccelerated node's own execution defines correctness.
    reference = node.execute_block(block)
    assert receipts_root(
        accelerated.receipts_in_block_order(block.transactions)
    ) == receipts_root(reference), "validator diverged!"

    success = sum(1 for r in reference if r.success)
    print(f"receipts: {success}/{len(reference)} succeeded, "
          f"{sum(len(r.logs) for r in reference)} events")

    speedup = baseline.makespan_cycles / accelerated.makespan_cycles
    for label, cycles in (("plain sequential core",
                           baseline.makespan_cycles),
                          ("MTPU (full co-design)",
                           accelerated.makespan_cycles)):
        seconds = cycles / CLOCK_HZ
        tps = len(block.transactions) / BLOCK_INTERVAL_S
        capacity = len(block.transactions) * (
            BLOCK_INTERVAL_S * 0.05 / seconds
        )
        print(f"  {label:22s}: {cycles:>8} cycles = {1e6 * seconds:.0f}us"
              f" -> ~{capacity / BLOCK_INTERVAL_S:,.0f} TPS sustainable")
    print(f"\nco-design speedup: {speedup:.2f}x "
          "(more transactions per block at the same interval)")


if __name__ == "__main__":
    main()
