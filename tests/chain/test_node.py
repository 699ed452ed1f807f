"""The three-stage node model: dissemination, consensus, execution."""

import pytest

from repro.chain.node import Node, StageClock
from repro.chain.receipt import receipts_root
from repro.workload import ActionLibrary
from tests.conftest import block_env_call, block_env_seen, block_env_state

import random


@pytest.fixture()
def node(deployment):
    return Node(state=deployment.state.copy())


def feed_transactions(node, deployment, count=10, seed=0):
    library = ActionLibrary(deployment, random.Random(seed))
    for _ in range(count):
        call = library.plan("Dai")
        node.hear(library.to_transaction(call))


class TestStageClock:
    def test_budgets_partition_interval(self):
        clock = StageClock(block_interval=13.0, execution_fraction=0.05)
        assert clock.execution_budget + clock.idle_budget == 13.0
        assert clock.idle_budget > clock.execution_budget


class TestDissemination:
    def test_hear_fills_mempool(self, node, deployment):
        feed_transactions(node, deployment, 5)
        assert len(node.mempool) == 5

    def test_duplicate_hear_is_idempotent(self, node, deployment):
        library = ActionLibrary(deployment, random.Random(1))
        tx = library.to_transaction(library.plan("Dai"))
        node.hear(tx)
        node.hear(tx)
        assert len(node.mempool) == 1

    def test_known_before(self, node, deployment):
        library = ActionLibrary(deployment, random.Random(1))
        tx = library.to_transaction(library.plan("Dai"))
        node.hear(tx, at=5)
        assert node.mempool.known_before(tx, 6)
        assert not node.mempool.known_before(tx, 5)


class TestConsensusAndExecution:
    def test_propose_block_embeds_dag(self, node, deployment):
        feed_transactions(node, deployment, 12)
        block = node.propose_block()
        assert len(block.transactions) == 12
        for i, j in block.dag_edges:
            assert 0 <= i < j < 12

    def test_propose_respects_max(self, node, deployment):
        feed_transactions(node, deployment, 10)
        block = node.propose_block(max_transactions=4)
        assert len(block.transactions) == 4
        assert len(node.mempool) == 6

    def test_execute_block_advances_chain(self, node, deployment):
        feed_transactions(node, deployment, 6)
        block = node.propose_block()
        receipts = node.execute_block(block)
        assert len(node.chain) == 1
        assert len(receipts) == 6
        assert all(r.success for r in receipts)

    def test_verify_block_on_identical_peer(self, node, deployment):
        peer = Node(state=deployment.state.copy())
        feed_transactions(node, deployment, 8)
        block = node.propose_block()
        receipts = node.execute_block(block)
        assert peer.verify_block(block, receipts_root(receipts))

    def test_blockhash_service_spans_chain(self, node, deployment):
        feed_transactions(node, deployment, 2)
        block1 = node.propose_block()
        node.execute_block(block1)
        context = node.block_context()
        assert context.height == 2
        assert context.blockhash_fn(1) == int.from_bytes(
            block1.hash(), "big"
        )
        assert context.blockhash_fn(2) == 0

    def test_block_work_does_not_grow_with_chain_height(
        self, monkeypatch
    ):
        """On a 1,000-block chain, BLOCKHASH hashes only the headers it
        is asked for — a proposal hashes its parent and nothing else of
        the window — and a whole propose → execute → commit round costs
        at most two header keccaks (the new header, unsealed and
        sealed): every older header answers from its cached hash."""
        import repro.chain.block as block_module
        from repro.chain.block import Block, BlockHeader

        node = Node(state=block_env_state())
        parent = b"\x00" * 32
        expected = {}
        for height in range(1, 1001):
            header = BlockHeader(
                height=height, timestamp=height, coinbase=1,
                difficulty=1, gas_limit=1, parent_hash=parent,
                state_root=height.to_bytes(32, "big"),
            )
            parent = header.hash()
            expected[1001 - height] = int.from_bytes(parent, "big")
            # Decoded copies: the chain starts with nothing cached, as
            # after recovery.
            node.chain.append(
                Block(header=BlockHeader.from_rlp(header.to_rlp()))
            )

        keccaks: list[bytes] = []
        real_keccak = block_module.keccak256
        monkeypatch.setattr(
            block_module, "keccak256",
            lambda blob: keccaks.append(blob) or real_keccak(blob),
        )
        context = node.block_context()
        assert context.height == 1001
        answers = {
            distance: context.blockhash_fn(1001 - distance)
            for distance in (1, 256, 257)
        }
        assert len(keccaks) == 2  # the two headers inside the window
        assert answers == {1: expected[1], 256: expected[256], 257: 0}
        assert context.blockhash_fn(1001) == 0  # not a parent

        # The window through the opcode, as the block itself sees it.
        keccaks.clear()
        node.hear(block_env_call())
        block = node.propose_block()
        assert len(keccaks) <= 1  # the parent; no hash list is built
        node.execute_block(block)
        assert block_env_seen(node.state)[2:] == [
            1001, 30_000_000, expected[1], expected[256], 0, 0
        ]

        keccaks.clear()
        node.hear(block_env_call(nonce=1))
        block = node.propose_block()
        node.execute_block(block)
        assert len(node.chain) == 1002
        assert len(keccaks) <= 2
        assert block.header.parent_hash == node.chain[-2].hash()
        assert block_env_seen(node.state)[4:6] == [
            int.from_bytes(node.chain[-2].hash(), "big"), expected[255]
        ]

    def test_execution_is_deterministic_across_nodes(self, deployment):
        results = []
        for _ in range(2):
            node = Node(state=deployment.state.copy())
            feed_transactions(node, deployment, 10, seed=3)
            block = node.propose_block()
            receipts = node.execute_block(block)
            results.append(
                (receipts_root(receipts), node.state.state_digest())
            )
        assert results[0] == results[1]
