"""Every engine behind ``Node.execute_block`` commits what the EVM
computes: the first row of the configuration matrix, at node level.

For each name in ``EXECUTORS`` and each block shape — plain transfers,
TOP8 calls, dynamic-storage-key calls, a conflict-aware cut —
``node.execute_block(block, executor=name)`` must leave the receipts,
the sealed ``state_root`` and the ``state_digest`` that a second node
computes by running the same transactions through the EVM with no
artifacts to lean on.

The follower's half: the block a proposer with *another* coinbase and
clock sealed crosses the wire (no artifacts, no lanes) and a default
node reproduces it — through every engine, ``verify_block``, a
replica's apply and recovery of the proposer's store — because the
context comes from the header, and the BLOCKHASH window from the node.
"""

import dataclasses

import pytest

from repro.chain.block import BLOCKHASH_WINDOW, Block
from repro.chain.mempool import PackingPolicy
from repro.chain.node import EXECUTORS, Node
from repro.chain.receipt import receipts_root
from repro.faults import DegradationReport
from repro.obs import use_registry
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_transactions
from repro.storage import StorageConfig, attach, codec, recover, snapshot
from repro.storage.wal import unframe_record
from repro.workload import generate_block, generate_dynamic_block
from tests.conftest import (
    block_env_call,
    block_env_seen,
    block_env_state,
    foreign_proposer,
)
from tests.replication.conftest import offline_replica

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
    for unknown, call in (
        ("threads", lambda: node.execute_block(block, executor="threads")),
        ("threads", lambda: node.propose_block(executor="threads")),
        ("occ", lambda: ServeConfig(executor="occ")),
    ):
        with pytest.raises(ValueError) as refused:
            call()
        assert unknown in str(refused.value)
        assert all(name in str(refused.value) for name in EXECUTORS)
    assert node.chain == []


# -- the follower's half -----------------------------------------------------
FOLLOWERS = EXECUTORS + ("verify_block", "replica", "recover")


@pytest.fixture(scope="module")
def sealed_by_a_foreign_proposer(deployment, tmp_path_factory):
    """(executor, shape) -> (genesis factory, wire bytes, receipts,
    proposer, its closed store): built once per pair, followed 7 ways."""
    built = {}

    def build(executor, shape):
        if (executor, shape) not in built:
            if shape == "blockenv":
                genesis = block_env_state
                txs = [block_env_call(0), block_env_call(1)]
            else:
                genesis = deployment.state.copy
                txs = transactions_for(deployment, shape)
            proposer = foreign_proposer(genesis())
            data_dir = str(tmp_path_factory.mktemp(f"{executor}-{shape}"))
            attach(proposer, data_dir, StorageConfig(fsync="never"))
            block = propose(proposer, txs, shape, executor)
            receipts = proposer.execute_block(
                block, executor=executor, num_workers=2
            )
            proposer.store.close()
            built[executor, shape] = (
                genesis, block.to_rlp(), receipts, proposer, data_dir
            )
        return built[executor, shape]

    return build


@pytest.mark.parametrize("follower", FOLLOWERS)
@pytest.mark.parametrize("shape", SHAPES + ("blockenv",))
@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_follower_reproduces_a_foreign_proposers_block(
    sealed_by_a_foreign_proposer, executor, shape, follower
):
    genesis, wire, receipts, proposer, data_dir = (
        sealed_by_a_foreign_proposer(executor, shape)
    )
    block = Block.from_rlp(wire)
    assert block.artifacts is None and block.packed_lanes is None
    assert (block.header.coinbase, block.header.timestamp) == (
        0xBEEF, 1_600_000_000 + 7
    )
    node = Node(state=genesis())
    if follower == "recover":
        node = recover(data_dir).node
    elif follower == "replica":
        offline_replica(node)._apply_block(codec.WalRecord(block))
    elif follower == "verify_block":
        assert node.verify_block(block, receipts_root(receipts))
    else:
        assert receipts == node.execute_block(
            block, executor=follower, num_workers=2
        )
    assert [b.hash() for b in node.chain] == [proposer.chain[0].hash()]
    assert node.receipts[block.hash()] == receipts
    assert node.state_root == proposer.state_root == block.header.state_root
    assert node.state.state_digest() == proposer.state.state_digest()
    assert node.state._journal == []
    if shape == "blockenv":
        assert block_env_seen(node.state) == [
            0xBEEF, 1_600_000_000 + 7, 1, 30_000_000, 0, 0, 0, 0
        ]


def test_the_blockhash_window_crosses_the_wire_and_a_resync(tmp_path):
    """BLOCKHASH through the opcode, on a chain deeper than the window:
    a follower that replayed every block answers from its chain, a
    replica that adopted a snapshot from the prefix shipped with it."""
    anchor = BLOCKHASH_WINDOW + 2
    proposer = foreign_proposer(block_env_state())
    follower = Node(state=block_env_state())
    for _ in range(anchor):
        proposer.execute_block(proposer.propose_block())
        follower.execute_block(Block.from_rlp(proposer.chain[-1].to_rlp()))
    payload = unframe_record(open(snapshot.write_snapshot(
        str(tmp_path), anchor, proposer.state, proposer.state_root
    ), "rb").read())
    hashes = {b.header.height: b.hash() for b in proposer.chain}
    shipped = [
        (height, hashes[height])
        for height in range(anchor - BLOCKHASH_WINDOW + 1, anchor + 1)
    ]

    proposer.hear(block_env_call())
    proposer.execute_block(proposer.propose_block())
    height = anchor + 1
    seen = block_env_seen(proposer.state)
    assert seen == [
        0xBEEF, 1_600_000_000 + 7 * height, height, 30_000_000,
        int.from_bytes(hashes[height - 1], "big"),
        int.from_bytes(hashes[height - BLOCKHASH_WINDOW], "big"),
        0, 0,
    ]
    wire = proposer.chain[-1].to_rlp()

    follower.execute_block(Block.from_rlp(wire))
    resynced = Node(state=block_env_state())
    replica = offline_replica(resynced)
    replica._apply_snapshot(payload, shipped)
    assert resynced.chain == [] and replica.height == anchor
    assert resynced.block_hash(anchor) == hashes[anchor]
    assert resynced.block_hash(anchor - BLOCKHASH_WINDOW) is None
    replica._apply_block(codec.WalRecord(Block.from_rlp(wire)))
    for node in (follower, resynced):
        assert block_env_seen(node.state) == seen
        assert node.state_root == proposer.state_root
        assert node.chain[-1].hash() == proposer.chain[-1].hash()
    # One block on, the replica answers from both: its chain for the
    # parent, the shipped prefix for the far edge of the window.
    proposer.hear(block_env_call(nonce=1))
    proposer.execute_block(proposer.propose_block())
    replica._apply_block(codec.WalRecord(
        Block.from_rlp(proposer.chain[-1].to_rlp())
    ))
    assert block_env_seen(resynced.state)[4:6] == [
        int.from_bytes(resynced.chain[0].hash(), "big"),
        int.from_bytes(hashes[height + 1 - BLOCKHASH_WINDOW], "big"),
    ] == block_env_seen(proposer.state)[4:6]


def test_parallel_rebuilds_a_dag_that_lies(deployment):
    """The engines that schedule from a DAG (``parallel``, ``mtpu``)
    discover the access sets themselves on somebody else's block and do
    not trust the shipped DAG further than they can check it; every
    engine commits the honest receipts and root under each lie."""
    txs = transactions_for(deployment, "top8")
    proposer = Node(state=deployment.state.copy())
    block = propose(proposer, txs, "top8", "parallel")
    receipts = proposer.execute_block(block, executor="parallel")
    assert block.dag_edges
    for executor in EXECUTORS:
        for edges in ([], [(1, 0)], [(0, len(txs) + 3)]):
            lying = Block.from_rlp(block.to_rlp())
            lying.dag_edges = edges
            node = Node(state=deployment.state.copy())
            assert node.execute_block(lying, executor=executor) == receipts
            assert node.state_root == proposer.state_root


@pytest.mark.parametrize("executor", ("parallel", "mtpu"))
def test_a_dag_lie_is_counted_once(deployment, executor):
    txs = transactions_for(deployment, "top8")
    proposer = Node(state=deployment.state.copy())
    block = propose(proposer, txs, "top8", executor)
    proposer.execute_block(block, executor=executor)
    lying = Block.from_rlp(block.to_rlp())
    lying.dag_edges = [(1, 0)]
    with use_registry() as registry:
        Node(state=deployment.state.copy()).execute_block(
            lying, executor=executor
        )
    report = DegradationReport.from_registry(registry)
    assert (report.dag_faults_detected, report.dag_rebuilds) == (1, 1)


def test_mtpu_executes_each_transaction_once(deployment):
    """As proposer (its own traced discovery, committed and timed) and
    as follower of a foreign ``top8`` block (one traced discovery,
    timed): one execution and one timing per transaction."""
    txs = transactions_for(deployment, "top8")
    with use_registry() as registry:
        proposer = foreign_proposer(deployment.state.copy())
        block = propose(proposer, txs, "top8", "mtpu")
        proposer.execute_block(block, executor="mtpu")
    assert registry.value("evm.tx_executions") == len(block.transactions)
    assert registry.total("pu.traces") == len(block.transactions)
    with use_registry() as registry:
        follower = Node(state=deployment.state.copy())
        follower.execute_block(
            Block.from_rlp(block.to_rlp()), executor="mtpu"
        )
    assert registry.value("evm.tx_executions") == len(block.transactions)
    assert registry.total("pu.traces") == len(block.transactions)
    assert follower.state_root == proposer.state_root
