"""Wire protocol: newline-delimited JSON-RPC 2.0 over a stream pair.

One request or response per line, UTF-8 JSON, ``\\n`` terminated — the
framing asyncio streams (and netcat) handle natively. Transactions cross
the wire as hex-encoded RLP (the chain's canonical encoding), receipts
as plain JSON objects; nothing here depends on asyncio so the codec is
reusable from synchronous clients and tests.
"""

from __future__ import annotations

import json

from ..chain.receipt import LogEntry, Receipt
from ..chain.transaction import Transaction
from .errors import INVALID_REQUEST, PARSE_ERROR, RpcError

#: Largest accepted request line; longer lines are a protocol error
#: (bounds per-connection buffering).
MAX_LINE_BYTES = 1 << 20


#: The one encoder every frame goes through: ``json.dumps`` with
#: non-default separators builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(obj: dict) -> bytes:
    """One JSON object as a newline-terminated wire frame."""
    return (_ENCODER.encode(obj) + "\n").encode()


def decode_frame(line: bytes) -> dict:
    """Parse one wire frame; raises :class:`RpcError` on bad input."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        raise RpcError(PARSE_ERROR, "invalid JSON") from None
    if not isinstance(obj, dict):
        raise RpcError(INVALID_REQUEST, "request must be an object")
    return obj


def request(method: str, params: dict | None = None,
            request_id: int | None = None) -> dict:
    obj: dict = {"jsonrpc": "2.0", "method": method}
    if params is not None:
        obj["params"] = params
    if request_id is not None:
        obj["id"] = request_id
    return obj


def response(request_id, result) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def error_response(request_id, err: RpcError) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "error": err.to_obj()}


def notification(method: str, params: dict) -> dict:
    """A server-push message (no id, no reply expected)."""
    return {"jsonrpc": "2.0", "method": method, "params": params}


# -- payload codecs --------------------------------------------------------
def tx_to_wire(tx: Transaction) -> str:
    return tx.to_rlp().hex()


def tx_from_wire(blob_hex: str) -> Transaction:
    try:
        return Transaction.from_rlp(bytes.fromhex(blob_hex))
    except Exception as exc:
        raise RpcError(
            INVALID_REQUEST, f"undecodable transaction: {exc}"
        ) from None


def receipt_to_wire(receipt: Receipt, block_height: int | None = None,
                    tx_index: int | None = None) -> dict:
    obj = {
        "txHash": receipt.tx_hash.hex(),
        "success": receipt.success,
        "gasUsed": receipt.gas_used,
        "output": receipt.output.hex(),
        "logs": [
            {
                "address": log.address,
                "topics": list(log.topics),
                "data": log.data.hex(),
            }
            for log in receipt.logs
        ],
        "contractAddress": receipt.contract_address,
        "error": receipt.error,
    }
    if block_height is not None:
        obj["blockHeight"] = block_height
    if tx_index is not None:
        obj["txIndex"] = tx_index
    return obj


def receipt_from_wire(obj: dict) -> Receipt:
    return Receipt(
        tx_hash=bytes.fromhex(obj["txHash"]),
        success=obj["success"],
        gas_used=obj["gasUsed"],
        logs=tuple(
            LogEntry(
                address=log["address"],
                topics=tuple(log["topics"]),
                data=bytes.fromhex(log["data"]),
            )
            for log in obj["logs"]
        ),
        output=bytes.fromhex(obj["output"]),
        contract_address=obj.get("contractAddress"),
        error=obj.get("error", ""),
    )


def header_to_wire(block) -> dict:
    """The ``newHeads`` notification payload for a committed block.

    ``stateRoot`` is the sealed Merkle root ("" from a non-Merkleizing
    writer); the packed-lane stats describe the conflict-aware cut when
    the block was packed (absent for FIFO blocks).
    """
    header = block.header
    obj = {
        "height": header.height,
        "hash": block.hash().hex(),
        "parentHash": header.parent_hash.hex(),
        "stateRoot": header.state_root.hex(),
        "timestamp": header.timestamp,
        "gasLimit": header.gas_limit,
        "transactions": len(block.transactions),
    }
    if block.packed_lanes is not None:
        obj["packedLanes"] = len(block.packed_lanes)
        obj["packedParallelism"] = block.packed_parallelism
    return obj
