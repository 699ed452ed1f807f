"""Per-connection reply buffer: many frames, one socket write.

Every reply and push for one connection is queued here and leaves in a
single ``transport.write`` at the end of the event-loop turn that
produced it — the 128 receipts a committed block resolves cost a
connection one write, not 128. Frames are whole lines and are never
split or reordered, so replies and ``newHeads`` pushes interleave only
at frame boundaries.

The outbox never waits. Backpressure belongs to the connection's
*reader*: it stops reading requests while :attr:`backlogged` (the
transport sits over its own write-buffer high-water mark) and awaits
:meth:`drain` there — once per stall, not once per reply — so a peer
that does not read its replies stops being served instead of growing
the buffer.
"""

from __future__ import annotations

import asyncio


class Outbox:
    """Frames queued for one stream, flushed once per loop turn."""

    __slots__ = (
        "writer", "transport", "high_water", "_on_write", "_frames",
        "_pending", "_loop",
    )

    def __init__(self, writer: asyncio.StreamWriter, on_write=None) -> None:
        self.writer = writer
        self.transport = writer.transport
        #: The transport's own pause-writing threshold, in bytes.
        self.high_water = self.transport.get_write_buffer_limits()[1]
        #: Called once per socket write (the server's ``socketWrites``).
        self._on_write = on_write
        self._frames: list[bytes] = []
        self._pending = 0
        self._loop = asyncio.get_running_loop()

    def is_closing(self) -> bool:
        return self.transport.is_closing()

    def write(self, frame: bytes) -> None:
        """Queue one whole frame for the end-of-turn flush."""
        if not self._frames:
            self._loop.call_soon(self.flush)
        self._frames.append(frame)
        self._pending += len(frame)
        if self._pending > self.high_water:
            # A turn that answers a long pipelined burst must show up in
            # the transport's buffer, where the reader's check sees it.
            self.flush()

    def flush(self) -> None:
        frames = self._frames
        if not frames:
            return
        self._frames = []
        self._pending = 0
        if self.transport.is_closing():
            return  # the peer is gone; its replies go with it
        self.transport.write(b"".join(frames))
        if self._on_write is not None:
            self._on_write()

    @property
    def backlogged(self) -> bool:
        """Flushed bytes the peer has not taken exceed the high-water
        mark: whoever feeds this connection should :meth:`drain`
        before producing more."""
        return self.transport.get_write_buffer_size() > self.high_water

    async def drain(self) -> None:
        """Wait until the peer has taken enough to resume writing
        (``ConnectionError`` when it is gone instead)."""
        self.flush()
        await self.writer.drain()
