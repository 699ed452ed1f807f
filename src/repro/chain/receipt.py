"""Execution receipts and event logs.

Receipts are what the MTPU's Receipt Buffer holds (paper section 3.3.6)
and what other nodes verify during the execution stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..crypto import keccak256
from . import rlp


@dataclass(frozen=True)
class LogEntry:
    """One LOG0..LOG4 event emitted during execution."""

    address: int
    topics: tuple[int, ...]
    data: bytes

    def to_rlp_item(self) -> list:
        return [
            rlp.encode_int(self.address),
            [rlp.encode_int(topic) for topic in self.topics],
            self.data,
        ]

    @classmethod
    def from_rlp_item(cls, item) -> "LogEntry":
        fields = rlp.as_list(item, "log entry", 3)
        return cls(
            address=rlp.decode_int(fields[0]),
            topics=tuple(
                rlp.decode_int(topic)
                for topic in rlp.as_list(fields[1], "log topics")
            ),
            data=rlp.as_bytes(fields[2], "log data"),
        )


@dataclass(frozen=True)
class Receipt:
    """Outcome of one transaction execution."""

    tx_hash: bytes
    success: bool
    gas_used: int
    logs: tuple[LogEntry, ...] = ()
    output: bytes = b""
    contract_address: int | None = None
    error: str = ""

    def to_rlp(self) -> bytes:
        """Canonical encoding used for receipt hashing/verification.

        Every field is on the wire (``contract_address`` as an empty or
        20-byte string, ``error`` as UTF-8), so the encoding round-trips
        through :meth:`from_rlp` — the property the storage layer's WAL
        format tests lean on.
        """
        return rlp.encode(
            [
                self.tx_hash,
                rlp.encode_int(1 if self.success else 0),
                rlp.encode_int(self.gas_used),
                [log.to_rlp_item() for log in self.logs],
                self.output,
                b"" if self.contract_address is None
                else self.contract_address.to_bytes(20, "big"),
                self.error.encode("utf-8"),
            ]
        )

    @classmethod
    def from_rlp(cls, blob: bytes) -> "Receipt":
        """Decode a receipt; malformed input raises RLPDecodingError."""
        fields = rlp.as_list(rlp.decode(blob), "receipt", 7)
        success = rlp.decode_int(fields[1])
        if success not in (0, 1):
            raise rlp.RLPDecodingError("receipt success must be 0 or 1")
        contract = rlp.as_bytes(fields[5], "receipt contract_address")
        if contract and len(contract) != 20:
            raise rlp.RLPDecodingError(
                "receipt contract_address must be empty or 20 bytes"
            )
        try:
            error = rlp.as_bytes(fields[6], "receipt error").decode("utf-8")
        except UnicodeDecodeError:
            raise rlp.RLPDecodingError(
                "receipt error is not valid UTF-8"
            ) from None
        return cls(
            tx_hash=rlp.as_bytes(fields[0], "receipt tx_hash"),
            success=bool(success),
            gas_used=rlp.decode_int(fields[2]),
            logs=tuple(
                LogEntry.from_rlp_item(item)
                for item in rlp.as_list(fields[3], "receipt logs")
            ),
            output=rlp.as_bytes(fields[4], "receipt output"),
            contract_address=(
                None if contract == b"" else int.from_bytes(contract, "big")
            ),
            error=error,
        )

    def hash(self) -> bytes:
        return keccak256(self.to_rlp())


class CommittedReceipt(NamedTuple):
    """A receipt plus its position in the chain: what a lookup
    (:meth:`~repro.chain.node.Node.receipt_of`) or a settled wait
    answers, made when asked for — the node's index holds atoms."""

    receipt: Receipt
    block_height: int
    tx_index: int


def receipts_root(receipts: list[Receipt]) -> bytes:
    """Order-sensitive digest over a block's receipts.

    Two nodes that executed a block through different schedules must agree
    on this digest — the integration tests use it to check serializability
    end to end.
    """
    return keccak256(b"".join(receipt.hash() for receipt in receipts))
