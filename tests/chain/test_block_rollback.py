"""One rule for every failure after the snapshot: if
``Node.execute_block`` raises — or ``verify_block`` says no — the node
is exactly where the block found it, whoever sealed the block and
wherever the failure landed: inside the engine, at the receipts-root
claim, at a sealed ``state_root`` that does not reproduce, in the
witness build, at a store that refuses the append. Then the honest block
applies. For the node's own proposal — already applied by the
discovery that proposed it — "where the block found it" is where the
*proposal* found the node."""

import dataclasses

import pytest

from repro.chain.block import Block
from repro.chain.node import EXECUTORS, Node, ReceiptsRootMismatchError
from repro.serve.loadgen import make_transactions
from repro.chain.receipt import receipts_root
from repro.storage import (
    AppendFailedError,
    StorageConfig,
    attach,
    codec,
    recover,
)
from repro.storage.store import WAL_NAME
from repro.storage.wal import scan_wal
from repro.trie import StateRootMismatchError, StateTrie
from tests.conftest import (
    foreign_proposer,
    refuse_next_append,
    wal_witnesses,
)
from tests.serve.test_invariants import dying_midway

FORGED = b"\x13" * 32


def node_facing_block_two(deployment, tmp_path, own, executor="sequential"):
    """A durable, witness-emitting node one block into its chain, with
    block 2 in hand — its own proposal (unsealed, artifacts attached) or
    one sealed by a proposer with another coinbase and clock, off the
    wire — and four more transactions pooled behind it. Returns the
    node, the block and :func:`everything` from before the block (for
    an own proposal: before ``propose_block``)."""
    txs = make_transactions(deployment, 20, workload="erc20", seed=7)
    node = Node(state=deployment.state.copy(), emit_witness=True)
    attach(node, str(tmp_path), StorageConfig(fsync="never"))
    if own:
        for tx in txs[:8]:
            node.hear(tx)
        node.execute_block(node.propose_block())
        for tx in txs[8:]:
            node.hear(tx)
        before = everything(node, tmp_path)
        return node, node.propose_block(
            max_transactions=8, executor=executor
        ), before
    proposer = foreign_proposer(deployment.state.copy())
    for cut in (txs[:8], txs[8:16]):
        for tx in cut:
            proposer.hear(tx)
        proposer.execute_block(proposer.propose_block(executor=executor))
    node.execute_block(Block.from_rlp(proposer.chain[0].to_rlp()))
    for tx in txs[8:]:
        node.hear(tx)
    return node, Block.from_rlp(proposer.chain[1].to_rlp()), everything(
        node, tmp_path
    )


def everything(node, tmp_path):
    """Everything a block may change but the pool, which the cut moved
    (the WAL scan covers the witnesses its records carry)."""
    return (
        node.state.state_digest(),
        node.state_root,
        list(node.chain),
        dict(node.receipts),
        scan_wal(str(tmp_path / WAL_NAME)),
    )


def assert_rolled_back_then_applies(
    node, block, before, tmp_path, fail, honest_header=None
):
    header = block.header
    pending = [tx.hash() for tx in node.mempool.pending()]
    fail()
    assert everything(node, tmp_path) == before
    assert [tx.hash() for tx in node.mempool.pending()] == pending
    assert node.state_root == StateTrie.rebuild_root(node.state)
    assert node.state._journal == []
    assert block.header is header

    if honest_header is not None:
        block.header = honest_header
    receipts = node.execute_block(block)
    assert node.chain[-1] is block and len(node.chain) == 2
    assert node.receipts[block.hash()] == receipts
    assert block.header.state_root == node.state_root
    assert node.state_root == StateTrie.rebuild_root(node.state)
    assert set(wal_witnesses(node.store)) == {1, 2}
    assert len(node.mempool) == 4
    node.store.close()
    recovered = recover(str(tmp_path))
    assert recovered.height == 2
    assert recovered.state_digest == codec.state_digest_bytes(node.state)


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
@pytest.mark.parametrize("dies_at", [1, 5])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_an_engine_dying_mid_block(
    deployment, tmp_path, executor, dies_at, own
):
    node, block, before = node_facing_block_two(
        deployment, tmp_path, own, executor
    )

    def fail():
        run = dying_midway(
            node,
            lambda b: node.execute_block(
                b, executor=executor, num_workers=2
            ),
            dies_at,
        )
        with pytest.raises(RuntimeError, match="died mid-block"):
            run(block)

    assert_rolled_back_then_applies(node, block, before, tmp_path, fail)


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
@pytest.mark.parametrize("through", ["execute_block", "verify_block"])
def test_a_receipts_root_claim_that_is_wrong(
    deployment, tmp_path, through, own
):
    node, block, before = node_facing_block_two(deployment, tmp_path, own)

    def fail():
        if through == "verify_block":
            verdict = node.verify_block(block, FORGED)
            assert not verdict and "receipts root" in verdict.detail
            return
        with pytest.raises(ReceiptsRootMismatchError) as err:
            node.execute_block(block, claimed_receipts_root=FORGED)
        assert err.value.claimed == FORGED != err.value.actual

    assert_rolled_back_then_applies(node, block, before, tmp_path, fail)


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
@pytest.mark.parametrize("through", ["execute_block", "verify_block"])
def test_a_sealed_state_root_that_does_not_reproduce(
    deployment, tmp_path, through, own
):
    node, block, before = node_facing_block_two(deployment, tmp_path, own)
    honest = block.header
    # What an honest run of the same two blocks computes.
    twin = Node(state=deployment.state.copy())
    for twin_block in (node.chain[0], block):
        twin_receipts = twin.execute_block(
            dataclasses.replace(twin_block, artifacts=None)
        )
    block.header = dataclasses.replace(honest, state_root=FORGED)

    def fail():
        if through == "verify_block":
            verdict = node.verify_block(block, receipts_root(twin_receipts))
            assert not verdict and "state root" in verdict.detail
            return
        with pytest.raises(StateRootMismatchError) as err:
            node.execute_block(block)
        assert (err.value.height, err.value.claimed, err.value.actual) == (
            2, FORGED, twin.state_root
        )

    assert_rolled_back_then_applies(
        node, block, before, tmp_path, fail, honest_header=honest
    )


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
def test_a_witness_build_that_raises(
    deployment, tmp_path, monkeypatch, own
):
    node, block, before = node_facing_block_two(deployment, tmp_path, own)

    def fail():
        def broken(*args):
            raise RuntimeError("witness build died")

        with monkeypatch.context() as patch:
            patch.setattr("repro.chain.node.build_witness", broken)
            with pytest.raises(RuntimeError, match="witness build died"):
                node.execute_block(block)

    assert_rolled_back_then_applies(node, block, before, tmp_path, fail)


@pytest.mark.parametrize("own", [False, True], ids=["foreign", "own"])
@pytest.mark.parametrize("site", ["append", "sync"])
def test_a_store_that_refuses_the_append(deployment, tmp_path, site, own):
    node, block, before = node_facing_block_two(deployment, tmp_path, own)
    node.store.config = dataclasses.replace(
        node.store.config, fsync="always"
    )

    def fail():
        refuse_next_append(node.store, site, half_written=site == "append")
        with pytest.raises(AppendFailedError):
            node.execute_block(block)

    assert_rolled_back_then_applies(node, block, before, tmp_path, fail)
