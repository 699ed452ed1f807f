#!/usr/bin/env python3
"""A validator following the chain, with hotspots shifting under it.

Simulates several block intervals on a :class:`~repro.chain.node.Node`
running the ``mtpu`` engine: traffic starts as a CryptoCat craze, then
fashion moves to DeFi. Watch the hotspot tracker dethrone the
collectible, the idle-slice optimizer re-target at the top of each block,
and per-block execution cycles drop once the new hotspots are profiled —
the paper's answer (section 2.2.3) to BPU's hard-wired ERC20
specialization.

Run:  python examples/validator_chain.py
"""

import random

from repro import build_deployment
from repro.chain.node import Node
from repro.obs import use_registry
from repro.workload import ActionLibrary

#: Each era is (label, contract mix) for a few blocks of traffic.
ERAS = [
    ("collectible craze", ["CryptoCat", "CryptoCat", "CryptoCat", "Dai"]),
    ("collectible craze", ["CryptoCat", "CryptoCat", "CryptoCat", "Dai"]),
    ("DeFi rotation", ["UniswapV2Router02", "Dai", "Dai", "TetherToken"]),
    ("DeFi rotation", ["UniswapV2Router02", "Dai", "Dai", "TetherToken"]),
    ("DeFi rotation", ["UniswapV2Router02", "Dai", "Dai", "TetherToken"]),
]


def main() -> None:
    deployment = build_deployment()
    node = Node(state=deployment.state.copy())
    library = ActionLibrary(deployment, random.Random(99))

    def names(addresses):
        return [deployment.by_address(a).name for a in addresses]

    print(f"{'blk':>3} {'era':<18} {'txs':>3} {'cycles':>7} "
          f"{'hot-applied':>11} {'optimized this slice':<24} top hotspots")
    print("-" * 100)
    for height, (era, mix) in enumerate(ERAS, start=1):
        for i in range(16):
            contract = mix[i % len(mix)]
            node.hear(library.to_transaction(library.plan(contract)))
        profiled = (
            set(node.hotspots.optimizer.hotspot_addresses)
            if node.hotspots else set()
        )
        # The idle slice runs between the cut and the discovery.
        block = node.propose_block(executor="mtpu")
        with use_registry() as registry:
            node.execute_block(block, executor="mtpu")
        # The first mtpu proposal made the node's idle-slice loop.
        loop = node.hotspots
        optimized = names(
            sorted(loop.optimizer.hotspot_addresses - profiled)
        )
        print(f"{height:>3} {era:<18} {len(block.transactions):>3} "
              f"{registry.total('sched.makespan_cycles'):>7} "
              f"{registry.total('hotspot.plans_applied'):>11} "
              f"{', '.join(optimized) or '-':<24} "
              f"{', '.join(names(loop.tracker.current_hotspots(3)))}")

    print(f"\nchain height {len(node.chain)}; "
          f"contract table holds {len(loop.optimizer.contract_table)} "
          "(contract, function) profiles")
    share = loop.tracker.head_share(3)
    print(f"TOP3 traffic share (decayed): {share:.0%} "
          "(paper: TOP5 = 37% on mainnet)")


if __name__ == "__main__":
    main()
