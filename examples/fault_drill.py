#!/usr/bin/env python3
"""Fault drill: a validator surviving a hostile block stream.

Every block interval throws a different fault class at a
:class:`~repro.chain.node.Node` running the ``mtpu`` engine — hostile
transactions at dissemination, a corrupted block-embedded DAG, a PU
dying mid-schedule, a stalled PU, a bogus claimed receipts root, and a
hotspot contract upgraded after it was profiled. Each fault is produced
by a seeded :class:`~repro.faults.FaultInjector` (replayable), detected
by the corresponding defense layer, and counted in the process registry
(``faults.*`` read back as a :class:`~repro.faults.DegradationReport`,
``mempool.rejections``, ``hotspot.stale_plans``).

An honest reference node executes the same blocks sequentially; the
drill ends by checking that the battered validator's world state is
bit-identical to the reference — graceful degradation, not corruption.

Run:  python examples/fault_drill.py
"""

from dataclasses import replace

from repro import build_deployment
from repro.chain import AdmissionError, Node
from repro.chain.node import ReceiptsRootMismatchError
from repro.chain.receipt import receipts_root
from repro.faults import (
    PU_DEAD,
    PU_STALL,
    DagCorruption,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    PUFault,
    TxCorruption,
)
from repro.obs import use_registry
from repro.workload import generate_block

#: One scenario per block interval: (label, FaultPlan).
SCENARIOS = [
    ("clean warm-up", FaultPlan(seed=1)),
    ("hostile dissemination", FaultPlan(
        seed=2, txs=TxCorruption(malformed=4, duplicates=3, underfunded=5),
    )),
    ("corrupted block DAG", FaultPlan(
        seed=3, dag=DagCorruption(drop_edges=2, bogus_edges=2,
                                  make_cycle=True),
    )),
    ("PU1 dies mid-block", FaultPlan(
        seed=4, pu_faults=(PUFault(pu_id=1, kind=PU_DEAD, at_cycle=1_500),),
    )),
    ("PU2 stalls 4k cycles", FaultPlan(
        seed=5, pu_faults=(PUFault(pu_id=2, kind=PU_STALL, at_cycle=800,
                                   stall_cycles=4_000),),
    )),
    ("bogus claimed root", FaultPlan(seed=6, corrupt_receipts_root=True)),
]


def interval(node, reference, height, label, transactions, injector=None):
    """One block interval: dissemination, the (possibly tampered)
    proposal, its execution on the MTPU against the honest chain's
    claim; prints one row."""
    injector = injector or FaultInjector(FaultPlan(seed=0))
    with use_registry() as registry:
        for tx in transactions + injector.hostile_transactions(transactions):
            try:
                node.hear(tx)
            except AdmissionError:
                pass  # admission refuses these; the registry counts them
        block = node.propose_block(executor="mtpu")
        block = replace(
            block,
            dag_edges=injector.corrupt_dag(
                len(block.transactions), block.dag_edges
            ),
        )
        # The honest chain executes the same block sequentially; its
        # receipts root is what consensus would have claimed.
        claimed = injector.corrupt_root(
            receipts_root(reference.execute_block(block))
        )
        try:
            node.execute_block(
                block, executor="mtpu", fault_injector=injector,
                claimed_receipts_root=claimed,
            )
            committed = True
        except ReceiptsRootMismatchError:
            committed = False  # refused by type; nothing was committed
    counts = {
        "rejected": registry.total("mempool.rejections"),
        "stale_plans": registry.total("hotspot.stale_plans"),
    }
    noted = " ".join(f"{k}={v}" for k, v in counts.items() if v)
    print(f"{height:>3} {label:<24} {len(block.transactions):>3} "
          f"{str(committed):>9} "
          f"{DegradationReport.from_registry(registry)} {noted}".rstrip())
    if not committed:
        # The refused block is real on the honest chain; resync it (the
        # drill's stand-in for fetching the honest root).
        node.execute_block(
            block, executor="mtpu",
            claimed_receipts_root=receipts_root(
                reference.receipts[block.hash()]
            ),
        )


def main() -> None:
    deployment = build_deployment()
    node = Node(state=deployment.state.copy(), mempool_capacity=512)
    reference = Node(state=deployment.state.copy())

    print(f"{'blk':>3} {'scenario':<24} {'txs':>3} {'committed':>9} "
          "counters")
    print("-" * 100)
    for height, (label, plan) in enumerate(SCENARIOS, start=1):
        honest = generate_block(
            deployment, num_transactions=20, seed=height,
        ).transactions
        interval(
            node, reference, height, label, honest, FaultInjector(plan)
        )

    # One more interval: upgrade every hot contract behind the
    # optimizer's back, then validate honest traffic.
    hot = tuple(sorted(node.hotspots.optimizer.hotspot_addresses))
    stale_plan = FaultPlan(seed=7, stale_profiles=hot)
    FaultInjector(stale_plan).poison_profiles(reference.state)
    FaultInjector(stale_plan).poison_profiles(node.state)
    honest = generate_block(
        deployment, num_transactions=20, seed=99,
    ).transactions
    interval(
        node, reference, len(SCENARIOS) + 1, "stale hotspot profiles", honest
    )

    print("-" * 100)
    same = node.state.state_digest() == reference.state.state_digest()
    print(f"\nchain height {len(node.chain)} "
          f"(reference {len(reference.chain)}); "
          f"state identical to honest sequential node: {same}")
    assert same, "degraded validator diverged from the honest reference"


if __name__ == "__main__":
    main()
