"""Blocks: serialization (with the embedded DAG) and BLOCKHASH service."""

from repro.chain import Block, BlockHeader, Transaction
from repro.chain.node import Node
from tests.conftest import block_env_call, block_env_seen, block_env_state


def make_block(height=1, txs=None, edges=None):
    header = BlockHeader(
        height=height, timestamp=1000, coinbase=0xC0, difficulty=1,
        gas_limit=30_000_000,
    )
    return Block(
        header=header,
        transactions=txs or [],
        dag_edges=edges or [],
    )


class TestSerialization:
    def test_roundtrip_empty(self):
        block = make_block()
        decoded = Block.from_rlp(block.to_rlp())
        assert decoded.header == block.header

    def test_roundtrip_with_txs_and_dag(self):
        txs = [
            Transaction(sender=1, to=2, nonce=i, data=bytes([i]))
            for i in range(3)
        ]
        block = make_block(txs=txs, edges=[(0, 1), (1, 2)])
        decoded = Block.from_rlp(block.to_rlp())
        assert decoded.transactions == txs
        assert decoded.dag_edges == [(0, 1), (1, 2)]

    def test_hash_depends_on_parent(self):
        a = make_block()
        b = make_block()
        object.__setattr__(b.header, "parent_hash", b"\x01" * 32)
        assert a.hash() != b.hash()


class TestBlockhash:
    """A block carries no hash list of its own: BLOCKHASH is answered by
    the window of the node executing it, asked here through the opcode
    (the 256-deep edge: ``test_engine_matrix``'s long chain)."""

    @staticmethod
    def seen_at_height_10():
        node = Node(state=block_env_state())
        for _ in range(9):
            node.execute_block(node.propose_block())
        node.hear(block_env_call())
        node.execute_block(node.propose_block())
        return node, block_env_seen(node.state)

    def test_recent_hash_window(self):
        node, seen = self.seen_at_height_10()
        assert seen[2] == 10
        # height 9 is distance 1
        assert seen[4] == int.from_bytes(node.chain[8].hash(), "big") != 0

    def test_out_of_window_is_zero(self):
        _, seen = self.seen_at_height_10()
        assert seen[7] == 0  # self
        assert seen[5] == seen[6] == 0  # below genesis (10 - 256 wraps)
