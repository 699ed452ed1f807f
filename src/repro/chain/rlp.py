"""Recursive Length Prefix (RLP) serialization.

The paper (section 2.1): "Transactions are network transported and
persisted by recursive length prefix (RLP)." This is a complete
implementation of the Ethereum RLP wire format over the item domain
``Item = bytes | list[Item]``.
"""

from __future__ import annotations

Item = bytes | list["Item"]

#: Maximum list nesting accepted by :func:`decode`. Well past anything the
#: chain's wire formats produce (≤ 4 levels), but bounded so hostile input
#: like ``b"\xc1" * 10**6`` raises a typed error instead of blowing the
#: interpreter's recursion limit.
MAX_DEPTH = 64

#: The one-byte items, and the one-byte prefixes of a string / list
#: payload under 56 bytes, built once instead of per item.
_BYTE = [bytes([value]) for value in range(0x80)]
_STRING_PREFIX = [bytes([0x80 + size]) for size in range(56)]
_LIST_PREFIX = [bytes([0xC0 + size]) for size in range(56)]


class RLPDecodingError(ValueError):
    """Raised for malformed RLP input."""


#: Alias — some call sites and docs use the shorter spelling.
RlpDecodeError = RLPDecodingError


def encode(item: Item) -> bytes:
    """Encode an item (bytes, or arbitrarily nested lists of bytes)."""
    if isinstance(item, (bytes, bytearray)):
        return _encode_bytes(bytes(item))
    if isinstance(item, list):
        return _encode_list(item)
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def decode(data: bytes) -> Item:
    """Decode a complete RLP blob; trailing bytes are an error."""
    item, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise RLPDecodingError(
            f"trailing bytes: consumed {consumed} of {len(data)}"
        )
    return item


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as minimal big-endian bytes."""
    if value < 0:
        raise ValueError("RLP integers must be non-negative")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_int(data: bytes) -> int:
    """Decode minimal big-endian bytes back to an integer."""
    if not isinstance(data, (bytes, bytearray)):
        raise RLPDecodingError(
            f"integer field must be bytes, got {type(data).__name__}"
        )
    if data and data[0] == 0:
        raise RLPDecodingError("integer encoding has leading zero byte")
    return int.from_bytes(data, "big")


def as_bytes(item: Item, what: str = "item") -> bytes:
    """Require a decoded item to be a byte string (typed error otherwise)."""
    if not isinstance(item, (bytes, bytearray)):
        raise RLPDecodingError(f"{what} must be a byte string")
    return bytes(item)


def as_list(item: Item, what: str = "item",
            length: int | None = None) -> list:
    """Require a decoded item to be a list (of *length*, when given)."""
    if not isinstance(item, list):
        raise RLPDecodingError(f"{what} must be a list")
    if length is not None and len(item) != length:
        raise RLPDecodingError(
            f"{what} must be a {length}-item list, got {len(item)}"
        )
    return item


def _encode_list(items: list) -> bytes:
    # A byte-string member is prefixed here, in the loop; only a nested
    # list (or a rarer type) goes back through encode().
    parts: list[bytes] = []
    append = parts.append
    for sub in items:
        if type(sub) is bytes:
            size = len(sub)
            if size < 56:
                if size != 1 or sub[0] >= 0x80:
                    append(_STRING_PREFIX[size])
            else:
                append(_length_prefix(size, 0x80))
            append(sub)
        else:
            append(encode(sub))
    payload = b"".join(parts)
    size = len(payload)
    if size < 56:
        return _LIST_PREFIX[size] + payload
    return _length_prefix(size, 0xC0) + payload


def _encode_bytes(data: bytes) -> bytes:
    if len(data) == 1 and data[0] < 0x80:
        return data
    return _length_prefix(len(data), 0x80) + data


def _length_prefix(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = encode_int(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def _decode_at(data: bytes, pos: int, depth: int = 0) -> tuple[Item, int]:
    if pos >= len(data):
        raise RLPDecodingError("unexpected end of input")
    prefix = data[pos]
    if prefix < 0x80:  # single byte literal
        return _BYTE[prefix], pos + 1
    if prefix < 0xB8:  # short string
        length = prefix - 0x80
        chunk = _take(data, pos + 1, length)
        if length == 1 and chunk[0] < 0x80:
            raise RLPDecodingError("non-canonical single byte encoding")
        return chunk, pos + 1 + length
    if prefix < 0xC0:  # long string
        len_of_len = prefix - 0xB7
        length = _read_length(data, pos + 1, len_of_len)
        start = pos + 1 + len_of_len
        return _take(data, start, length), start + length
    if depth >= MAX_DEPTH:
        raise RLPDecodingError(f"list nesting exceeds {MAX_DEPTH}")
    if prefix < 0xF8:  # short list
        length = prefix - 0xC0
        return _decode_list(data, pos + 1, length, depth)
    # long list
    len_of_len = prefix - 0xF7
    length = _read_length(data, pos + 1, len_of_len)
    return _decode_list(data, pos + 1 + len_of_len, length, depth)


def _decode_list(
    data: bytes, start: int, length: int, depth: int
) -> tuple[Item, int]:
    end = start + length
    if end > len(data):
        raise RLPDecodingError("list payload exceeds input")
    # Single bytes and short strings, the bulk of every wire format, are
    # decoded here with _decode_at's checks in _decode_at's order; only
    # long strings and nested lists go back through it.
    items: list[Item] = []
    append = items.append
    size = len(data)
    pos = start
    while pos < end:
        prefix = data[pos]
        if prefix < 0x80:  # single byte literal
            append(_BYTE[prefix])
            pos += 1
            continue
        if prefix < 0xB8:  # short string
            first = pos + 1
            pos = first + prefix - 0x80
            if pos > size:
                raise RLPDecodingError("payload exceeds input")
            chunk = data[first:pos]
            if prefix == 0x81 and chunk[0] < 0x80:
                raise RLPDecodingError("non-canonical single byte encoding")
        else:
            chunk, pos = _decode_at(data, pos, depth + 1)
        if pos > end:
            raise RLPDecodingError("list item exceeds list payload")
        append(chunk)
    return items, end


def _read_length(data: bytes, pos: int, len_of_len: int) -> int:
    raw = _take(data, pos, len_of_len)
    if raw and raw[0] == 0:
        raise RLPDecodingError("length encoding has leading zero byte")
    length = int.from_bytes(raw, "big")
    if length < 56:
        raise RLPDecodingError("non-canonical long-form length")
    return length


def _take(data: bytes, pos: int, length: int) -> bytes:
    if pos + length > len(data):
        raise RLPDecodingError("payload exceeds input")
    return data[pos : pos + length]
