"""World-state snapshots: bounded-replay recovery anchors.

A snapshot is one CRC-framed record (the WAL's framing, reused) whose
payload is ``RLP([version, height, state_root_32, state_rlp])`` — the
root being the Merkle root of the encoded state, equal to the
``state_root`` sealed into the block header at that height — written
atomically — encode to ``<name>.tmp``, fsync, then ``rename`` — so a
crash mid-write leaves either the previous snapshot set or the new one,
never a half file under the real name.

Snapshot files are named ``snapshot-<height 12 digits>.rlp``. Height 0
is the genesis snapshot written when a store is initialized; it is never
pruned, so recovery always has an anchor even when every later snapshot
is damaged or pruned.
"""

from __future__ import annotations

import os
import re

from ..chain import rlp
from ..chain.state import WorldState
from ..trie import StateTrie
from . import codec
from .errors import CorruptSnapshotError, CorruptWalError
from .wal import frame_record, unframe_record

_NAME_RE = re.compile(r"^snapshot-(\d{12})\.rlp$")


def snapshot_name(height: int) -> str:
    return f"snapshot-{height:012d}.rlp"


def atomic_write(path: str, blob: bytes) -> None:
    """Write-tmp-fsync-rename so *path* is never partially written."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_snapshot(
    data_dir: str, height: int, state: WorldState, state_root: bytes
) -> str:
    """Atomically persist *state* at *height*, stamped with its Merkle
    *state_root* (the caller's trie already has it); returns the path."""
    payload = rlp.encode([
        codec.VERSION_ITEM,
        rlp.encode_int(height),
        state_root,
        codec.state_to_rlp(state),
    ])
    path = os.path.join(data_dir, snapshot_name(height))
    atomic_write(path, frame_record(payload))
    return path


def _stamp(payload: bytes, source: str) -> tuple[int, bytes, bytes]:
    """(height, state_root, state_rlp) of a snapshot payload."""
    height, root, state_rlp = codec.decode_envelope(
        payload, f"snapshot {source}", 3
    )
    try:
        root = rlp.as_bytes(root, "snapshot state root")
        if len(root) != 32:
            raise rlp.RLPDecodingError(
                "snapshot state root must be 32 bytes"
            )
        return (
            rlp.decode_int(rlp.as_bytes(height, "snapshot height")),
            root,
            rlp.as_bytes(state_rlp, "snapshot state"),
        )
    except rlp.RLPDecodingError as exc:
        raise CorruptSnapshotError(f"{source}: {exc}") from exc


def decode_snapshot(
    payload: bytes, source: str = "payload"
) -> tuple[int, bytes, WorldState, StateTrie]:
    """Decode and *verify* a snapshot payload.

    Returns (height, state_root, state, trie): the trie is built over
    the decoded state to check it against the stamped root, and handed
    back attached so the caller never builds it a second time
    (:meth:`repro.chain.node.Node.adopt`). A state that does not
    reproduce its stamp — one flipped storage slot is enough — raises
    :class:`CorruptSnapshotError`.
    """
    height, root, state_rlp = _stamp(payload, source)
    try:
        state = codec.state_from_rlp(state_rlp)
    except (rlp.RLPDecodingError, ValueError) as exc:
        raise CorruptSnapshotError(f"{source}: {exc}") from exc
    trie = StateTrie()
    if trie.attach(state) != root:
        raise CorruptSnapshotError(
            f"{source}: state does not match its stamped state root"
        )
    return height, root, state, trie


def _read_payload(path: str) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return unframe_record(blob)
    except CorruptWalError as exc:
        raise CorruptSnapshotError(f"{path}: {exc}") from exc


def read_snapshot(path: str) -> tuple[int, bytes, WorldState, StateTrie]:
    """Load one snapshot file; see :func:`decode_snapshot`."""
    return decode_snapshot(_read_payload(path), path)


def read_snapshot_stamp(path: str) -> tuple[int, bytes]:
    """(height, state_root) of a snapshot without decoding its state.

    The cheap header read the replication streamer uses to validate a
    replica's claimed root against an anchor it is not going to ship.
    """
    return _stamp(_read_payload(path), path)[:2]


def list_snapshots(data_dir: str) -> list[tuple[int, str]]:
    """(height, path) of every snapshot file, highest height first."""
    found: list[tuple[int, str]] = []
    for name in os.listdir(data_dir):
        match = _NAME_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(data_dir, name)))
    found.sort(reverse=True)
    return found


def load_latest_snapshot(
    data_dir: str, max_height: int | None = None, sealed_root=None
) -> tuple[int, WorldState, StateTrie, list[str]]:
    """The newest *usable* snapshot (optionally at/below *max_height*).

    Damaged snapshots are skipped — recovery falls back to the next
    older anchor and replays a longer WAL suffix instead of failing —
    and so is one whose stamp disagrees with ``sealed_root(height)``,
    the root the chain sealed into that height's header (``None``:
    no opinion). Returns (height, state, trie, skipped_paths).
    """
    skipped: list[str] = []
    for height, path in list_snapshots(data_dir):
        if max_height is not None and height > max_height:
            continue
        try:
            loaded_height, root, state, trie = read_snapshot(path)
        except CorruptSnapshotError:
            skipped.append(path)
            continue
        expected = sealed_root(height) if sealed_root else None
        if loaded_height != height or (
            expected is not None and root != expected
        ):
            skipped.append(path)
            continue
        return height, state, trie, skipped
    raise CorruptSnapshotError(
        f"no usable snapshot in {data_dir!r} "
        f"(skipped {len(skipped)} damaged or inconsistent files)"
    )


def prune_snapshots(data_dir: str, retain: int) -> list[str]:
    """Delete all but the newest *retain* snapshots (genesis is kept)."""
    removed: list[str] = []
    kept = 0
    for height, path in list_snapshots(data_dir):
        if height == 0:
            continue
        kept += 1
        if kept > retain:
            os.unlink(path)
            removed.append(path)
    return removed


def sync_dir(data_dir: str) -> None:
    """fsync the directory so renames/creates are durable."""
    try:
        fd = os.open(data_dir, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
