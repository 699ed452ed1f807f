"""Tail-follow reading of a live WAL: the replication feed.

A :class:`WalTailReader` opens a WAL file that another process (or
thread) is still appending to and yields complete, CRC-verified records
as they land. The reader never trusts a partially written tail: a record
whose header, payload, or CRC is incomplete at poll time is simply *not
there yet* — the reader stays parked at its offset and retries on the
next poll, because an append in progress looks exactly like a torn
crash-write until the remaining bytes arrive.

The one situation that is fatal is the same one recovery refuses:
damage with valid records *beyond* it. If the file keeps growing past a
record that still fails its CRC, no amount of waiting will repair it —
that is mid-log corruption and the reader raises
:class:`~repro.storage.errors.CorruptWalError` instead of silently
skipping committed blocks.
"""

from __future__ import annotations

import os

from .errors import CorruptWalError
from .wal import MAX_RECORD_BYTES, RECORD_HEADER, _try_record

#: A stuck record whose claimed extent is exceeded by this many bytes of
#: newer data is mid-log corruption, not an append in progress (appends
#: are sequential: bytes beyond a record only exist once it is complete).
_STUCK_SLACK_BYTES = RECORD_HEADER.size


class WalTailReader:
    """Incremental reader over a WAL another writer is appending to.

    ``start_record`` skips that many records from the front before the
    first poll — how a replication stream resumes from a known height
    without re-reading history it already applied.
    """

    def __init__(self, path: str, start_record: int = 0) -> None:
        self.path = path
        self._offset = 0
        #: Records handed out so far (across the whole file).
        self.records_read = 0
        #: Complete records silently skipped to honour ``start_record``.
        self._skip = max(0, start_record)

    @property
    def offset(self) -> int:
        """Byte offset of the next unread record."""
        return self._offset

    def poll(self) -> list[bytes]:
        """Every complete new record since the last poll.

        Returns an empty list when nothing new (or only a partial tail)
        has been appended. Raises :class:`CorruptWalError` when the file
        has grown beyond a record that still fails to frame — waiting
        cannot fix bytes that were already written wrong.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        fresh: list[bytes] = []
        pos = 0
        while pos < len(data):
            payload, pos, reason = _try_record(data, pos)
            if payload is None:
                self._check_stuck(data, pos, reason)
                break
            if self._skip > 0:
                self._skip -= 1
            else:
                fresh.append(payload)
                self.records_read += 1
        self._offset += pos
        return fresh

    def _check_stuck(self, data: bytes, pos: int, reason: str) -> None:
        """Distinguish an append in progress from mid-log damage.

        An in-progress append ends exactly at the file's tail. If bytes
        exist *beyond* the failing record's claimed extent, the writer
        has already moved on and the record will never become valid.
        """
        if pos + RECORD_HEADER.size > len(data):
            return  # torn header: the header itself is still landing
        length, _crc = RECORD_HEADER.unpack_from(data, pos)
        if length > MAX_RECORD_BYTES:
            raise CorruptWalError(
                f"{self.path}: offset {self._offset + pos}: "
                f"implausible record length {length}"
            )
        claimed_end = pos + RECORD_HEADER.size + length
        if len(data) > claimed_end + _STUCK_SLACK_BYTES:
            raise CorruptWalError(
                f"{self.path}: offset {self._offset + pos}: {reason} "
                f"with {len(data) - claimed_end} bytes beyond it — "
                f"mid-log corruption, refusing to skip records"
            )
