"""Byte-addressed EVM memory (the in-core MEM of paper section 3.3.6).

Memory grows in 32-byte words; expansion is charged quadratically by
:mod:`repro.evm.gas`. This module only tracks contents and the
high-water mark.
"""

from __future__ import annotations

from .stack import WORD_MASK


class Memory:
    """Transaction-frame scratch memory."""

    __slots__ = ("_data", "size_words")

    def __init__(self) -> None:
        self._data = bytearray()
        #: Current size in 32-byte words (the gas rule reads it on every
        #: memory access, so it is kept, not computed).
        self.size_words = 0

    def __len__(self) -> int:
        return len(self._data)

    def extend(self, offset: int, length: int) -> None:
        """Grow memory (zero-filled) to cover ``[offset, offset+length)``."""
        if length == 0:
            return
        new_words = (offset + length + 31) // 32
        if new_words > self.size_words:
            self._data.extend(bytes(32 * new_words - len(self._data)))
            self.size_words = new_words

    def read(self, offset: int, length: int) -> bytes:
        """Read *length* bytes, implicitly extending memory first."""
        end = offset + length
        if end > len(self._data):
            self.extend(offset, length)
        return bytes(self._data[offset:end])

    def read_word(self, offset: int) -> int:
        """MLOAD: read a 256-bit big-endian word."""
        data = self._data
        end = offset + 32
        if end > len(data):
            self.extend(offset, 32)
        return int.from_bytes(data[offset:end], "big")

    def write(self, offset: int, data: bytes) -> None:
        """Write raw bytes, implicitly extending memory first."""
        if not data:
            return
        self.extend(offset, len(data))
        self._data[offset : offset + len(data)] = data

    def write_word(self, offset: int, value: int) -> None:
        """MSTORE: write a 256-bit big-endian word."""
        data = self._data
        end = offset + 32
        if end > len(data):
            self.extend(offset, 32)
        data[offset:end] = (value & WORD_MASK).to_bytes(32, "big")

    def write_byte(self, offset: int, value: int) -> None:
        """MSTORE8: write the low byte of *value*."""
        self.write(offset, bytes([value & 0xFF]))

    def snapshot(self) -> bytes:
        """A copy of the full memory contents (for tests/inspection)."""
        return bytes(self._data)
