"""Transactions (paper Fig. 3(a) / Table 4).

A transaction is either a plain token transfer or a smart-contract
invocation (SCT). The *To* field selects the callee contract and the
*Input* data carries the 4-byte function identifier plus ABI-encoded
arguments — exactly the information the spatio-temporal scheduler uses for
pre-static analysis (paper section 2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import keccak256
from . import rlp


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction record."""

    sender: int  # From
    to: int | None  # None => contract creation
    nonce: int = 0
    gas_limit: int = 10_000_000
    gas_price: int = 1
    value: int = 0  # CallValue
    data: bytes = b""  # Input: selector + ABI args (or init code)
    # Metadata attached by workload generation (not part of the wire format):
    tags: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def is_create(self) -> bool:
        """True for contract-creation transactions."""
        return self.to is None

    @property
    def selector(self) -> bytes | None:
        """The function identifier (first 4 bytes of Input), if present."""
        if self.is_create or len(self.data) < 4:
            return None
        return self.data[:4]

    def to_rlp(self) -> bytes:
        """RLP wire encoding (paper: transactions are RLP transported).

        Memoized like :meth:`hash`: a transaction that arrived as bytes
        keeps those bytes (:meth:`from_rlp`), so writing it back out —
        WAL append, replication stream, mempool spill — encodes nothing.
        ``dataclasses.replace`` builds a new object that carries neither
        cache.
        """
        cached = self.__dict__.get("_rlp")
        if cached is not None:
            return cached
        # Addresses are fixed 20-byte fields (as in Ethereum): this keeps
        # the zero address distinguishable from the empty `to` of a
        # contract-creation transaction.
        fields = [
            rlp.encode_int(self.nonce),
            rlp.encode_int(self.gas_price),
            rlp.encode_int(self.gas_limit),
            self.sender.to_bytes(20, "big"),
            b"" if self.to is None else self.to.to_bytes(20, "big"),
            rlp.encode_int(self.value),
            self.data,
        ]
        cached = rlp.encode(fields)
        object.__setattr__(self, "_rlp", cached)
        return cached

    @classmethod
    def from_rlp(cls, blob: bytes) -> "Transaction":
        """Decode a transaction from its RLP wire encoding.

        Malformed input — wrong shape, non-bytes fields, bad address
        widths — raises :class:`~repro.chain.rlp.RLPDecodingError`, never
        a raw ``IndexError``/``TypeError``.

        The hash and the memoized encoding are stamped from *blob*
        itself rather than from a re-encoding: :mod:`repro.chain.rlp`
        decodes strict-canonical RLP only (single-byte rule, minimal
        lengths, no leading-zero integers, no trailing bytes) and the
        address widths are checked here, so an accepted blob is the one
        encoding of its transaction — ``tx.to_rlp() == blob``.
        """
        item = rlp.as_list(rlp.decode(blob), "transaction", 7)
        nonce, gas_price, gas_limit, sender, to, value, data = item
        sender_bytes = rlp.as_bytes(sender, "transaction sender")
        if len(sender_bytes) != 20:
            raise rlp.RLPDecodingError("transaction sender must be 20 bytes")
        to_bytes = rlp.as_bytes(to, "transaction to")
        if to_bytes and len(to_bytes) != 20:
            raise rlp.RLPDecodingError(
                "transaction to must be empty or 20 bytes"
            )
        blob = bytes(blob)
        # The fields are filled in one dict write, not through the
        # frozen dataclass's __init__ (an object.__setattr__ per field):
        # this runs once per transaction that reaches the node.
        tx = object.__new__(cls)
        tx.__dict__.update(
            sender=int.from_bytes(sender_bytes, "big"),
            to=None if to_bytes == b"" else int.from_bytes(to_bytes, "big"),
            nonce=rlp.decode_int(nonce),
            gas_limit=rlp.decode_int(gas_limit),
            gas_price=rlp.decode_int(gas_price),
            value=rlp.decode_int(value),
            data=rlp.as_bytes(data, "transaction data"),
            tags={},
            _rlp=blob,
            _hash=keccak256(blob),
        )
        return tx

    def hash(self) -> bytes:
        """Transaction hash over the wire encoding (memoized).

        Transactions are immutable, so the keccak over the RLP encoding
        is computed once and cached — it is consulted per call in the
        mempool, receipt ordering, artifact lookup and fault reports.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = keccak256(self.to_rlp())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        dest = "CREATE" if self.to is None else f"{self.to:#x}"
        sel = self.selector.hex() if self.selector else "-"
        return f"<Tx {self.sender:#x}->{dest} sel={sel} value={self.value}>"
