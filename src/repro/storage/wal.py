"""The append-only write-ahead block log.

One record per committed block::

    +----------------+----------------+-------------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (length bytes)  |
    +----------------+----------------+-------------------------+

    payload = RLP([ version, block_rlp, witness ])

The block's header is sealed: its ``state_root`` is the record's
post-state commitment (see :mod:`repro.storage.codec` for the payload
formats and the refusal of any other).

The CRC covers the payload, so a torn tail write (partial header,
partial payload, or a payload whose bits never made it to the platter)
is *detected* at scan time, reported, and truncated away — a crash
mid-append must cost at most the block that was being appended, never
the log. Framing is deliberately dumb: fixed-width header, no
compression, no in-place mutation, so a scan can always decide exactly
where the valid prefix ends.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

from .errors import CorruptWalError

#: WAL record header: payload length, CRC32 of the payload.
RECORD_HEADER = struct.Struct(">II")

#: Sanity bound on a single record. A length field above this is treated
#: as framing corruption (a real block of this size is impossible here).
MAX_RECORD_BYTES = 1 << 28


def frame_record(payload: bytes) -> bytes:
    """Frame *payload* as one length+CRC record."""
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(
            f"record of {len(payload)} bytes exceeds MAX_RECORD_BYTES"
        )
    return (
        RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    )


def unframe_record(blob: bytes) -> bytes:
    """Inverse of :func:`frame_record` for single-record files
    (snapshots, the spilled mempool). Raises on any damage."""
    if len(blob) < RECORD_HEADER.size:
        raise CorruptWalError("record shorter than its header")
    length, crc = RECORD_HEADER.unpack_from(blob, 0)
    payload = blob[RECORD_HEADER.size:RECORD_HEADER.size + length]
    if len(payload) != length:
        raise CorruptWalError(
            f"record payload truncated: {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != crc:
        raise CorruptWalError("record CRC mismatch")
    return payload


@dataclass
class WalScan:
    """What a scan of a WAL file found.

    ``records`` is the valid prefix; everything from ``valid_bytes`` on
    is garbage (torn tail, CRC damage, or framing noise) described by
    ``corruption``. ``suffix_records`` counts records that *do* frame
    and checksum correctly beyond the first bad one — a non-zero value
    means mid-log corruption: data after the damage is unrecoverable by
    tail truncation and verify-store must fail loudly.
    """

    records: list[bytes] = field(default_factory=list)
    file_bytes: int = 0
    valid_bytes: int = 0
    corruption: str | None = None
    suffix_records: int = 0

    @property
    def clean(self) -> bool:
        return self.corruption is None

    @property
    def truncated_bytes(self) -> int:
        return self.file_bytes - self.valid_bytes

    @property
    def mid_log_corruption(self) -> bool:
        return self.corruption is not None and self.suffix_records > 0


def _try_record(data: bytes, pos: int) -> tuple[bytes | None, int, str]:
    """Try to read one record at *pos*.

    Returns (payload, next_pos, "") on success or (None, pos, reason).
    """
    if pos + RECORD_HEADER.size > len(data):
        return None, pos, (
            f"torn header: {len(data) - pos} of "
            f"{RECORD_HEADER.size} bytes"
        )
    length, crc = RECORD_HEADER.unpack_from(data, pos)
    if length > MAX_RECORD_BYTES:
        return None, pos, f"implausible record length {length}"
    start = pos + RECORD_HEADER.size
    end = start + length
    if end > len(data):
        return None, pos, (
            f"torn payload: {len(data) - start} of {length} bytes"
        )
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        return None, pos, "payload CRC mismatch"
    return payload, end, ""


def scan_wal(path: str) -> WalScan:
    """Read every valid record from the front of the WAL.

    Never raises on damage: the scan stops at the first bad record and
    reports it. To judge whether the damage is tail-only, the scanner
    then *skips* the bad record's claimed extent and keeps counting
    well-formed records (``suffix_records``) — valid data beyond the
    damage distinguishes unrecoverable mid-log corruption from an
    ordinary crash tear.
    """
    scan = WalScan()
    if not os.path.exists(path):
        return scan
    with open(path, "rb") as fh:
        data = fh.read()
    scan.file_bytes = len(data)

    pos = 0
    while pos < len(data):
        payload, pos, reason = _try_record(data, pos)
        if payload is None:
            scan.corruption = f"offset {pos}: {reason}"
            break
        scan.records.append(payload)
        scan.valid_bytes = pos

    if scan.corruption is not None:
        # Probe past the damaged record for surviving framed records.
        length = None
        if pos + RECORD_HEADER.size <= len(data):
            length, _ = RECORD_HEADER.unpack_from(data, pos)
        if length is not None and length <= MAX_RECORD_BYTES:
            probe = pos + RECORD_HEADER.size + length
            while probe < len(data):
                payload, probe, reason = _try_record(data, probe)
                if payload is None:
                    break
                scan.suffix_records += 1
    return scan


def truncate_wal(path: str, valid_bytes: int) -> None:
    """Repair a torn tail by truncating to the valid prefix."""
    with open(path, "r+b") as fh:
        fh.truncate(valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())


class WalWriter:
    """Appends framed records to the log; the caller owns fsync policy.
    The file is unbuffered: a write that fails partway leaves nothing in
    this process to reach the log later, so :meth:`truncate` cuts back
    exactly what the failed append put there."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "ab", buffering=0)

    @property
    def offset(self) -> int:
        return self._fh.tell()

    def append(self, payload: bytes) -> int:
        """Append one record to the OS page cache (fsync is separate);
        returns bytes written."""
        record = frame_record(payload)
        view = memoryview(record)
        while view:
            view = view[self._fh.write(view):]
        return len(record)

    def sync(self) -> None:
        """fsync the log to stable storage."""
        os.fsync(self._fh.fileno())

    def truncate(self, offset: int) -> None:
        """Cut the log back to *offset* (an append that failed partway)
        and make the cut as durable as the bytes it removes may be."""
        self._fh.truncate(offset)
        self._fh.seek(offset)  # truncate leaves the position past the end
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()
