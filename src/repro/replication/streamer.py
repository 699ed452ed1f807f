"""The writer side: tail the WAL, stream blocks to followers.

The :class:`WalStreamer` is an asyncio TCP server the writer runs next
to its RPC listener. Each follower connection opens with a HELLO naming
the follower's applied height and state root; the streamer validates
that claim against the root sealed into its own WAL at that height and
either

* streams incrementally — a :class:`~repro.storage.tail.WalTailReader`
  positioned at the follower's height feeds CRC-framed BLOCK messages as
  commits land (woken by the block builder's ``on_new_head`` callback,
  with a poll-interval fallback), or
* resyncs from snapshot — when the follower asked for one, claims a
  root the WAL contradicts (divergence), or is further behind
  than ``snapshot_catchup_blocks`` — by shipping the newest on-disk
  snapshot at/below the writer's head and streaming the WAL suffix from
  there.

The streamer never trusts the follower: a root mismatch at HELLO time
means the follower's universe is wrong, and the only thing it is offered
is a snapshot, never a suffix that would silently extend a diverged
state.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time

from ..chain.block import BLOCKHASH_WINDOW
from ..obs import MetricsRegistry
from ..storage import codec, snapshot
from ..storage.errors import CorruptSnapshotError, UnsupportedFormatError
from ..storage.store import WAL_NAME
from ..storage.tail import WalTailReader
from ..storage.wal import unframe_record
from . import stream
from .config import ReplicationConfig
from .errors import StreamProtocolError


#: Newest records kept pre-framed in memory (see ``_WalIndex.frames``).
#: Larger than the default snapshot catch-up threshold, so any follower
#: offered a stream instead of a snapshot is served from the cache.
FRAME_CACHE_RECORDS = 1024


class _WalIndex:
    """The writer's in-memory view of its own WAL: roots and hashes.

    ``roots[i]`` is the state root sealed into block height ``i + 1``;
    ``hashes[i]`` its block hash (served to resyncing followers so
    BLOCKHASH stays answerable across a snapshot gap). Refreshed
    incrementally by tailing the same file the store appends to.

    ``frames[i]`` is the fully framed BLOCK message for record ``i``,
    built once at discovery and written verbatim to every follower —
    decoding, re-framing, and CRC work happen once per commit instead
    of once per commit *per connection*. Only the newest
    :data:`FRAME_CACHE_RECORDS` are retained; colder catch-ups read the
    WAL file directly. The cached ``sent_at`` stamp is the moment the
    writer discovered the commit, so follower lag measures
    commit-to-apply time.
    """

    def __init__(self, wal_path: str) -> None:
        self._tail = WalTailReader(wal_path)
        self.hashes: list[bytes] = []
        self.roots: list[bytes] = []
        self.frames: dict[int, bytes] = {}

    @property
    def height(self) -> int:
        return len(self.roots)

    def refresh(self) -> None:
        for payload in self._tail.poll():
            block = codec.decode_wal_record(payload).block
            self.hashes.append(block.hash())
            self.roots.append(block.header.state_root)
            index = len(self.roots) - 1
            self.frames[index] = stream.encode_block(
                int(time.time() * 1e6), len(self.roots), payload
            )
            self.frames.pop(index - FRAME_CACHE_RECORDS, None)

    def root(self, height: int) -> bytes | None:
        """The sealed state root of block *height* (None if unknown)."""
        if 1 <= height <= len(self.roots):
            return self.roots[height - 1]
        return None

    def recent_hashes(self, height: int) -> list[tuple[int, bytes]]:
        """(height, hash) for the BLOCKHASH window ending at *height*."""
        lo = max(1, height - BLOCKHASH_WINDOW + 1)
        return [(h, self.hashes[h - 1]) for h in range(lo, height + 1)]


class WalStreamer:
    """Streams the writer's WAL to follower connections."""

    def __init__(
        self,
        data_dir: str,
        config: ReplicationConfig | None = None,
        fault_injector=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.data_dir = str(data_dir)
        self.config = config or ReplicationConfig()
        #: Optional :class:`repro.faults.FaultInjector` whose
        #: ``tear_stream`` hook severs connections mid-stream.
        self.fault_injector = fault_injector
        self._index = _WalIndex(os.path.join(self.data_dir, WAL_NAME))
        self._server: asyncio.base_events.Server | None = None
        #: Per-connection commit wake-ups (set by notify_commit).
        self._wakes: set[asyncio.Event] = set()
        self._genesis: bytes | None = None
        #: The writer's books when its server starts this streamer; a
        #: streamer built alone gets its own. ``health()["streaming"]``
        #: is a view of these four series.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._m_connections = counter("replication.connections")
        self._m_followers = self.metrics.gauge("replication.followers")
        self._m_blocks_streamed = counter("replication.blocks_streamed")
        self._m_snapshots_sent = counter("replication.snapshots_sent")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle,
            host=self.config.host,
            port=self.config.stream_port,
        )
        # Ephemeral-port runs read the bound port back.
        self.config.stream_port = (
            self._server.sockets[0].getsockname()[1]
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for wake in list(self._wakes):
            wake.set()

    def notify_commit(self, block=None, receipts=None) -> None:
        """Wake every streaming connection; a new WAL record landed.

        Signature matches the block builder's ``on_new_head`` callback
        so it wires straight in; the arguments are unused — the WAL
        itself is the source of truth for what to send.
        """
        for wake in self._wakes:
            wake.set()

    # -- hello validation ----------------------------------------------------
    def _genesis_root(self) -> bytes | None:
        if self._genesis is None:
            path = os.path.join(self.data_dir, snapshot.snapshot_name(0))
            try:
                _, self._genesis = snapshot.read_snapshot_stamp(path)
            except (
                OSError, CorruptSnapshotError, UnsupportedFormatError
            ):
                return None
        return self._genesis

    def _diverged(self, height: int, state_root: bytes) -> bool:
        """Whether the WAL contradicts a follower's claimed root — never
        extend a wrong universe. A height the writer cannot vouch for
        (beyond its head, unreadable genesis anchor) is not divergence."""
        vouched = (
            self._genesis_root() if height == 0
            else self._index.root(height)
        )
        return vouched is not None and vouched != state_root

    def _newest_snapshot(self) -> tuple[int, bytes] | None:
        """(height, raw file payload) of the newest loadable snapshot."""
        for height, path in snapshot.list_snapshots(self.data_dir):
            try:
                with open(path, "rb") as fh:
                    return height, unframe_record(fh.read())
            except Exception:
                continue  # damaged anchor: fall back to an older one
        return None

    # -- per-connection streaming --------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._m_connections.inc()
        self._m_followers.inc()
        wake = asyncio.Event()
        self._wakes.add(wake)
        try:
            await self._stream_to(reader, writer, wake)
        except (
            ConnectionError,
            StreamProtocolError,
            UnsupportedFormatError,
            asyncio.TimeoutError,
            OSError,
        ):
            pass  # torn/bogus follower: its problem, not the writer's
        finally:
            self._wakes.discard(wake)
            self._m_followers.inc(-1)
            with contextlib.suppress(Exception):
                writer.close()

    async def _stream_to(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        wake: asyncio.Event,
    ) -> None:
        msg_type, fields = await stream.read_message(
            reader, timeout=self.config.stream_read_timeout_s
        )
        if msg_type != stream.MSG_HELLO:
            raise StreamProtocolError("expected HELLO")
        height, claimed_root, need_snapshot = fields
        self._index.refresh()
        start_height = height
        diverged = self._diverged(height, claimed_root)
        behind = self._index.height - height
        if (
            need_snapshot
            or diverged
            or not 0 <= behind <= self.config.snapshot_catchup_blocks
        ):
            newest = self._newest_snapshot()
            if newest is not None and (
                newest[0] > height or need_snapshot or diverged
            ):
                snap_height, payload = newest
                writer.write(stream.encode_snapshot(
                    payload, self._index.recent_hashes(snap_height)
                ))
                await writer.drain()
                self._m_snapshots_sent.inc()
                start_height = snap_height
            # else: behind but no newer anchor on disk — the WAL suffix
            # from the follower's own height is the only way forward.
        next_index = start_height
        blocks_sent = 0
        while True:
            self._index.refresh()
            sent_this_poll = 0
            while next_index < self._index.height:
                if (
                    self.fault_injector is not None
                    and self.fault_injector.tear_stream(blocks_sent)
                ):
                    return  # injected torn stream: sever abruptly
                frame = self._index.frames.get(next_index)
                if frame is None:
                    # Colder than the frame cache: read the suffix off
                    # the file once; later rounds hit the cache again.
                    cold = WalTailReader(
                        os.path.join(self.data_dir, WAL_NAME),
                        start_record=next_index,
                    )
                    payloads = cold.poll()
                    if not payloads:
                        break  # racing a torn tail: wait for the wake
                    now_us = int(time.time() * 1e6)
                    height = self._index.height
                    for payload in payloads:
                        if (
                            self.fault_injector is not None
                            and self.fault_injector.tear_stream(
                                blocks_sent
                            )
                        ):
                            return
                        writer.write(stream.encode_block(
                            now_us, height, payload
                        ))
                        next_index += 1
                        blocks_sent += 1
                        self._m_blocks_streamed.inc()
                        sent_this_poll += 1
                    continue
                writer.write(frame)
                next_index += 1
                blocks_sent += 1
                self._m_blocks_streamed.inc()
                sent_this_poll += 1
            if sent_this_poll:
                await writer.drain()
            if self._server is None:
                return  # streamer stopped
            wake.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    wake.wait(), timeout=self.config.poll_interval_s
                )
            # A follower that closes its end surfaces as a send failure
            # on the next write; also poll its read side so a clean
            # close is noticed even when no blocks are flowing.
            if reader.at_eof():
                raise ConnectionError("follower closed")

    def stats(self) -> dict:
        value = self.metrics.value
        return {
            "connectionsTotal": value("replication.connections"),
            "connectionsActive": value("replication.followers"),
            "blocksStreamed": value("replication.blocks_streamed"),
            "snapshotsSent": value("replication.snapshots_sent"),
            "walHeight": self._index.height,
        }
