"""Every engine behind ``Node.execute_block`` commits what the EVM
computes: the first row of the configuration matrix, at node level.

For each name in ``EXECUTORS`` and each block shape — plain transfers,
TOP8 calls, dynamic-storage-key calls, a conflict-aware cut —
``node.execute_block(block, executor=name)`` must leave the receipts,
the sealed ``state_root`` and the ``state_digest`` that a second node
computes by running the same transactions through the EVM with no
artifacts to lean on.
"""

import dataclasses

import pytest

from repro.chain.mempool import PackingPolicy
from repro.chain.node import EXECUTORS, Node
from repro.serve.loadgen import make_transactions
from repro.workload import generate_block, generate_dynamic_block

SHAPES = ("transfer", "top8", "dynamic", "packed")


def transactions_for(deployment, shape):
    if shape == "transfer":
        return make_transactions(deployment, 12, workload="transfer", seed=4)
    if shape == "top8":
        return generate_block(
            deployment, num_transactions=12, seed=4
        ).transactions
    if shape == "dynamic":
        return generate_dynamic_block(
            deployment, num_transactions=12, seed=4
        ).transactions
    return make_transactions(deployment, 12, workload="hotburst", seed=4)


def propose(node, txs, shape, executor):
    for tx in txs:
        node.hear(tx)
    if shape != "packed":
        return node.propose_block(
            max_transactions=len(txs), executor=executor
        )
    return node.propose_block(
        max_transactions=len(txs), executor=executor,
        packing="conflict_aware",
        packing_policy=PackingPolicy(lane_depth=2, aging_bound=2),
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_engine_commits_what_the_evm_computes(
    deployment, executor, shape
):
    txs = transactions_for(deployment, shape)
    node = Node(state=deployment.state.copy())
    block = propose(node, txs, shape, executor)
    assert block.transactions
    receipts = node.execute_block(block, executor=executor, num_workers=2)

    reference = Node(state=deployment.state.copy())
    plain = dataclasses.replace(
        block,
        header=dataclasses.replace(block.header, state_root=b""),
        artifacts=None,
    )
    assert receipts == reference.execute_block(plain)
    assert block.header.state_root == plain.header.state_root != b""
    assert node.state_root == reference.state_root
    assert node.state.state_digest() == reference.state.state_digest()
    assert node.chain[-1] is block
    assert node.receipts[block.hash()] == receipts
    assert not any(node.mempool.contains(tx) for tx in block.transactions)


def test_an_unknown_engine_is_refused_by_name(deployment):
    node = Node(state=deployment.state.copy())
    block = node.propose_block()
    for call in (
        lambda: node.execute_block(block, executor="threads"),
        lambda: node.propose_block(executor="threads"),
    ):
        with pytest.raises(ValueError) as refused:
            call()
        assert "threads" in str(refused.value)
        assert all(name in str(refused.value) for name in EXECUTORS)
    assert node.chain == []
