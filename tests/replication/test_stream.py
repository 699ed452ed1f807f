"""Wire-codec tests: framing, CRC, torn streams, hostile payloads."""

import asyncio

import pytest

from repro.chain import rlp
from repro.replication import StreamProtocolError
from repro.replication import stream
from repro.storage.wal import RECORD_HEADER


def reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_one(data: bytes, timeout=None):
    async def run():
        return await stream.read_message(
            reader_for(data), timeout=timeout
        )

    return asyncio.run(run())


def test_hello_round_trip():
    root = bytes(range(32))
    frame = stream.encode_hello(17, root, need_snapshot=True)
    msg_type, fields = read_one(frame)
    assert msg_type == stream.MSG_HELLO
    assert fields == (17, root, True)


def test_snapshot_round_trip_with_recent_hashes():
    recent = [(3, b"\x03" * 32), (4, b"\x04" * 32)]
    frame = stream.encode_snapshot(b"snapshot-payload", recent)
    msg_type, (payload, hashes) = read_one(frame)
    assert msg_type == stream.MSG_SNAPSHOT
    assert payload == b"snapshot-payload"
    assert hashes == recent


def test_block_round_trip():
    frame = stream.encode_block(123_456_789, 42, b"wal-record-bytes")
    msg_type, (sent_at, writer_height, payload) = read_one(frame)
    assert msg_type == stream.MSG_BLOCK
    assert sent_at == 123_456_789
    assert writer_height == 42
    assert payload == b"wal-record-bytes"


def test_crc_damage_is_a_protocol_error():
    frame = bytearray(stream.encode_block(1, 1, b"payload"))
    frame[-1] ^= 0xFF
    with pytest.raises(StreamProtocolError):
        read_one(bytes(frame))


def test_truncated_frame_is_a_torn_stream():
    frame = stream.encode_block(1, 1, b"payload")
    with pytest.raises(ConnectionError):
        read_one(frame[: len(frame) - 3])


def test_eof_is_a_torn_stream():
    with pytest.raises(ConnectionError):
        read_one(b"")


def test_silence_times_out():
    async def run():
        reader = asyncio.StreamReader()  # never fed
        with pytest.raises(asyncio.TimeoutError):
            await stream.read_message(reader, timeout=0.05)

    asyncio.run(run())


def test_implausible_length_is_a_protocol_error():
    header = RECORD_HEADER.pack(stream.MAX_MESSAGE_BYTES + 1, 0)
    with pytest.raises(StreamProtocolError):
        read_one(header + b"x" * 16)


def test_unknown_message_type_rejected():
    from repro.storage.wal import frame_record

    frame = frame_record(rlp.encode([rlp.encode_int(9)]))
    with pytest.raises(StreamProtocolError):
        read_one(frame)


def test_garbage_payload_rejected():
    from repro.storage.wal import frame_record

    frame = frame_record(b"\xff\xfe\xfd")
    with pytest.raises(StreamProtocolError):
        read_one(frame)
