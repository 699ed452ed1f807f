"""Blocks and block headers (paper Table 4 "Block Header").

A block carries its transactions *and* the serialized inter-transaction
dependency DAG: the paper (footnote 3) notes that "DAGs are serialised and
persistently stored in blocks" by the consensus stage so every verifying
node can schedule in parallel without re-deriving dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import keccak256
from . import rlp
from .transaction import Transaction

#: Number of recent block hashes reachable by BLOCKHASH (paper Table 4).
BLOCKHASH_WINDOW = 256
#: ``parent_hash`` of the first block.
GENESIS_PARENT = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Fixed-length block metadata (paper Table 4)."""

    height: int
    timestamp: int
    coinbase: int
    difficulty: int
    gas_limit: int
    parent_hash: bytes = GENESIS_PARENT
    #: Merkle root of the post-block world state (see repro.trie);
    #: empty until :meth:`~repro.chain.node.Node.seal_state_root` seals
    #: the header at commit.
    state_root: bytes = b""

    def to_rlp(self) -> bytes:
        return rlp.encode(
            [
                rlp.encode_int(self.height),
                rlp.encode_int(self.timestamp),
                rlp.encode_int(self.coinbase),
                rlp.encode_int(self.difficulty),
                rlp.encode_int(self.gas_limit),
                self.parent_hash,
                self.state_root,
            ]
        )

    @classmethod
    def from_rlp(cls, blob: bytes) -> "BlockHeader":
        """Decode a header; malformed input raises RLPDecodingError."""
        fields = rlp.as_list(rlp.decode(blob), "block header", 7)
        parent_hash = rlp.as_bytes(fields[5], "header parent_hash")
        if len(parent_hash) != 32:
            raise rlp.RLPDecodingError("header parent_hash must be 32 bytes")
        state_root = rlp.as_bytes(fields[6], "header state_root")
        if len(state_root) not in (0, 32):
            raise rlp.RLPDecodingError(
                "header state_root must be empty or 32 bytes"
            )
        return cls(
            height=rlp.decode_int(fields[0]),
            timestamp=rlp.decode_int(fields[1]),
            coinbase=rlp.decode_int(fields[2]),
            difficulty=rlp.decode_int(fields[3]),
            gas_limit=rlp.decode_int(fields[4]),
            parent_hash=parent_hash,
            state_root=state_root,
        )

    def hash(self) -> bytes:
        """Block hash over the header encoding (memoized).

        Headers are frozen, and sealing goes through
        ``dataclasses.replace`` — a new object with no cached hash — so
        the keccak is computed once per header however many later blocks
        ask for it (``parent_hash``, BLOCKHASH, the receipt and streamer
        indexes).
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = keccak256(self.to_rlp())
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass
class Block:
    """A block: header, transaction batch, and the serialized DAG."""

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)
    #: Dependency edges as (i, j) index pairs: transaction j depends on the
    #: execution result of transaction i (i must commit before j starts).
    dag_edges: list[tuple[int, int]] = field(default_factory=list)
    #: Consensus-stage pre-execution artifacts, one per transaction
    #: (:class:`~repro.chain.artifact.ExecutionArtifact`). Node-local —
    #: never serialized, set only by ``Node.propose_block``; the
    #: proposer's ``mtpu`` engine times its own proposal from them.
    artifacts: list | None = field(default=None, repr=False, compare=False)
    #: Conflict-aware packing lanes: index lists partitioning
    #: ``transactions`` into serial chains with no conflicts between
    #: lanes (``Mempool.take_packed``). Node-local — never serialized;
    #: the DAG in ``dag_edges`` stays the portable dependency encoding.
    packed_lanes: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Width of the packed cut (transactions ÷ longest lane); ``None``
    #: for FIFO-packed blocks.
    packed_parallelism: float | None = field(
        default=None, repr=False, compare=False
    )

    def to_rlp(self) -> bytes:
        return rlp.encode(
            [
                self.header.to_rlp(),
                [tx.to_rlp() for tx in self.transactions],
                [
                    [rlp.encode_int(i), rlp.encode_int(j)]
                    for i, j in self.dag_edges
                ],
            ]
        )

    @classmethod
    def from_rlp(cls, blob: bytes) -> "Block":
        item = rlp.as_list(rlp.decode(blob), "block", 3)
        header_blob, tx_items, edge_items = item
        header = BlockHeader.from_rlp(
            rlp.as_bytes(header_blob, "block header")
        )
        # Each transaction is embedded as its own RLP blob (a byte string
        # item), so it decodes directly.
        transactions = [
            Transaction.from_rlp(rlp.as_bytes(t, "block transaction"))
            for t in rlp.as_list(tx_items, "block transactions")
        ]
        edges = []
        for edge in rlp.as_list(edge_items, "block dag edges"):
            pair = rlp.as_list(edge, "dag edge", 2)
            edges.append((rlp.decode_int(pair[0]), rlp.decode_int(pair[1])))
        return cls(header=header, transactions=transactions, dag_edges=edges)

    def hash(self) -> bytes:
        return self.header.hash()
