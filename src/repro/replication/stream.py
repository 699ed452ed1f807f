"""The replication wire protocol: CRC-framed RLP messages over TCP.

Framing reuses the WAL's own record discipline — a ``>II`` header of
(payload length, CRC32) followed by the payload — so a byte flipped in
flight is caught exactly like a byte flipped on disk, and a connection
cut mid-message is indistinguishable from EOF (both mean "reconnect").

Message payloads are RLP lists tagged with a type byte:

* ``HELLO``    (replica → writer): ``[type, version, height,
  state_root, need_snapshot]`` — "I have applied blocks through
  *height* and my trie root is *state_root*; start me from there (or
  send a snapshot if I asked, or if you cannot vouch for my root)". The
  writer checks the claim against the root sealed into its WAL's header
  at that height. A HELLO in any other shape is refused with
  :class:`~repro.storage.errors.UnsupportedFormatError`.
* ``SNAPSHOT`` (writer → replica): ``[type, snapshot_payload,
  recent_hashes]`` — the exact payload of a snapshot file
  (``RLP([version, height, state_root, state])``) plus the hashes of
  up to the 256 blocks ending at the snapshot height, so a replica that
  never saw those blocks can still answer BLOCKHASH for them; the
  replica replaces its world wholesale.
* ``BLOCK``    (writer → replica): ``[type, sent_at_us, writer_height,
  wal_payload]`` — one WAL record (``RLP([version, block, witness])``,
  the block's header sealed with its post-state root) plus the writer's
  wall-clock send time and chain height at send, which is what
  replication lag (seconds and blocks) is measured against on a shared
  clock.
"""

from __future__ import annotations

import asyncio
import zlib

from ..chain import rlp
from ..storage import codec
from ..storage.wal import RECORD_HEADER, frame_record
from .errors import StreamProtocolError

MSG_HELLO = 1
MSG_SNAPSHOT = 2
MSG_BLOCK = 3

#: Bound on one stream message (a full state snapshot rides in one).
MAX_MESSAGE_BYTES = 1 << 30


def encode_hello(
    height: int, state_root: bytes, need_snapshot: bool
) -> bytes:
    return frame_record(rlp.encode([
        rlp.encode_int(MSG_HELLO),
        codec.VERSION_ITEM,
        rlp.encode_int(height),
        state_root,
        rlp.encode_int(1 if need_snapshot else 0),
    ]))


def encode_snapshot(
    snapshot_payload: bytes,
    recent_hashes: list[tuple[int, bytes]] | None = None,
) -> bytes:
    return frame_record(rlp.encode([
        rlp.encode_int(MSG_SNAPSHOT),
        snapshot_payload,
        [
            [rlp.encode_int(height), block_hash]
            for height, block_hash in (recent_hashes or [])
        ],
    ]))


def encode_block(
    sent_at_us: int, writer_height: int, wal_payload: bytes
) -> bytes:
    return frame_record(rlp.encode([
        rlp.encode_int(MSG_BLOCK),
        rlp.encode_int(sent_at_us),
        rlp.encode_int(writer_height),
        wal_payload,
    ]))


def decode_message(payload: bytes) -> tuple[int, tuple]:
    """Decode one unframed message payload into (type, fields)."""
    try:
        fields = rlp.as_list(rlp.decode(payload), "stream message")
        if not fields:
            raise rlp.RLPDecodingError("empty stream message")
        msg_type = rlp.decode_int(rlp.as_bytes(fields[0], "message type"))
        if msg_type == MSG_HELLO:
            height, state_root, need_snapshot = codec.expect_version(
                fields[1:], "hello", 3
            )
            state_root = rlp.as_bytes(state_root, "hello state root")
            if len(state_root) != 32:
                raise rlp.RLPDecodingError(
                    "hello state root must be 32 bytes"
                )
            return MSG_HELLO, (
                rlp.decode_int(rlp.as_bytes(height, "hello height")),
                state_root,
                bool(rlp.decode_int(
                    rlp.as_bytes(need_snapshot, "hello need_snapshot")
                )),
            )
        if msg_type == MSG_SNAPSHOT:
            wanted = rlp.as_list(fields, "snapshot", 3)
            recent: list[tuple[int, bytes]] = []
            for pair in rlp.as_list(wanted[2], "snapshot hashes"):
                entry = rlp.as_list(pair, "snapshot hash entry", 2)
                recent.append((
                    rlp.decode_int(rlp.as_bytes(entry[0], "hash height")),
                    rlp.as_bytes(entry[1], "block hash"),
                ))
            return MSG_SNAPSHOT, (
                rlp.as_bytes(wanted[1], "snapshot payload"),
                recent,
            )
        if msg_type == MSG_BLOCK:
            wanted = rlp.as_list(fields, "block", 4)
            return MSG_BLOCK, (
                rlp.decode_int(rlp.as_bytes(wanted[1], "block sent_at")),
                rlp.decode_int(
                    rlp.as_bytes(wanted[2], "block writer height")
                ),
                rlp.as_bytes(wanted[3], "block payload"),
            )
    except rlp.RLPDecodingError as exc:
        raise StreamProtocolError(f"undecodable message: {exc}") from None
    raise StreamProtocolError(f"unknown message type {msg_type}")


async def read_message(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> tuple[int, tuple]:
    """Read one framed message; raises on EOF, CRC damage, or timeout.

    ``ConnectionError`` on a cleanly closed stream (torn stream to the
    caller), :class:`StreamProtocolError` on framing/CRC damage,
    ``asyncio.TimeoutError`` when *timeout* elapses with no bytes.
    """

    async def _read() -> tuple[int, tuple]:
        header = await reader.readexactly(RECORD_HEADER.size)
        length, crc = RECORD_HEADER.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise StreamProtocolError(
                f"implausible message length {length}"
            )
        payload = await reader.readexactly(length)
        if zlib.crc32(payload) != crc:
            raise StreamProtocolError("message CRC mismatch")
        return decode_message(payload)

    try:
        if timeout is None:
            return await _read()
        return await asyncio.wait_for(_read(), timeout=timeout)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        raise ConnectionError("stream closed") from None
