"""Wire protocol: newline-delimited JSON-RPC 2.0 over a stream pair.

One request or response per line, UTF-8 JSON, ``\\n`` terminated — the
framing asyncio streams (and netcat) handle natively. Transactions cross
the wire as hex-encoded RLP (the chain's canonical encoding), receipts
as plain JSON objects; nothing here depends on asyncio so the codec is
reusable from synchronous clients and tests.
"""

from __future__ import annotations

import json
import math

from ..chain.receipt import LogEntry, Receipt
from ..chain.transaction import Transaction
from .errors import INVALID_REQUEST, PARSE_ERROR, RpcError

#: Largest accepted request line; longer lines are a protocol error
#: (bounds per-connection buffering).
MAX_LINE_BYTES = 1 << 20


#: The encoder every frame but a receipt reply goes through:
#: ``json.dumps`` with non-default separators builds a new encoder per
#: call. A reply is JSON (RFC 8259): a non-finite float raises instead
#: of going out as ``NaN``.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
#: A JSON string literal, quotes included, as ``_ENCODER`` writes one.
_quote = json.encoder.encode_basestring_ascii


def encode_frame(obj: dict) -> bytes:
    """One JSON object as a newline-terminated wire frame."""
    return (_ENCODER.encode(obj) + "\n").encode()


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a float")
    return value


#: The request decoder: json's own (C) scanner, less the non-finite
#: numbers (``NaN``, ``Infinity``, ``1e400``) JSON does not have.
_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_constant=_refuse_constant
)
_scan_once = _DECODER.scan_once
_skip_whitespace = json.decoder.WHITESPACE.match


def decode_frame(line: bytes) -> dict:
    """Parse one wire frame; raises :class:`RpcError` on bad input.

    The line is UTF-8, decoded once, and holds one JSON value between
    optional whitespace: what ``json.loads`` does, minus its encoding
    sniffing (a BOM, UTF-16/32 and surrogate-escaped bytes are refused)
    and minus the non-finite numbers.
    """
    try:
        text = line.decode()
        obj, end = _scan_once(text, _skip_whitespace(text, 0).end())
    except (ValueError, StopIteration, RecursionError):
        # UnicodeDecodeError and JSONDecodeError are ValueErrors;
        # StopIteration is the scanner finding no value at all;
        # RecursionError is nesting deeper than the scanner recurses.
        raise RpcError(PARSE_ERROR, "invalid JSON") from None
    if _skip_whitespace(text, end).end() != len(text):
        raise RpcError(PARSE_ERROR, "invalid JSON")
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


#: ``receipt_frame``'s reply, ``encode_frame(response(...))``'s bytes.
_RECEIPT_FRAME = (
    '{"jsonrpc":"2.0","id":%s,"result":{"txHash":"%s","success":%s,'
    '"gasUsed":%d,"output":"%s","logs":[%s],"contractAddress":%s,'
    '"error":%s%s}}\n'
)
_LOG = '{"address":%d,"topics":[%s],"data":"%s"}'


def receipt_frame(request_id, receipt: Receipt,
                  block_height: int | None = None,
                  tx_index: int | None = None) -> bytes:
    """The whole reply frame carrying *receipt*, written directly.

    Byte for byte ``encode_frame(response(request_id,
    receipt_to_wire(receipt, block_height, tx_index)))``, at a fraction
    of its cost: the generic encoder builds a C encoder per call, which
    is most of a transfer's reply. ``receipt_to_wire`` stays the
    oracle (``tests/serve/test_wire_differential.py``).
    """
    tail = ""
    if block_height is not None:
        tail = ',"blockHeight":%d' % block_height
    if tx_index is not None:
        tail += ',"txIndex":%d' % tx_index
    contract = receipt.contract_address
    return (_RECEIPT_FRAME % (
        str(request_id) if request_id.__class__ is int
        else _ENCODER.encode(request_id),
        receipt.tx_hash.hex(),
        "true" if receipt.success else "false",
        receipt.gas_used,
        receipt.output.hex(),
        ",".join([
            _LOG % (log.address, ",".join(map(str, log.topics)),
                    log.data.hex())
            for log in receipt.logs
        ]),
        "null" if contract is None else str(contract),
        _quote(receipt.error),
        tail,
    )).encode()


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
