"""Replica behaviour: follow, verify, diverge, resync, reconnect."""

import asyncio

import pytest

from repro.chain.node import Node
from repro.faults import FaultInjector, FaultPlan, NetworkFault
from repro.replication import Replica, ReplicaDivergenceError
from repro.serve import READ_ONLY, RpcClientError, ServeConfig
from repro.serve.batcher import BlockBuilder
from repro.serve.loadgen import RpcClient
from repro.storage import StorageConfig, codec

from .conftest import (
    digest_of,
    eventually,
    offline_replica,
    send_transfers,
    start_replica,
    start_writer,
    stop_replica,
)

#: A writer store that snapshots every 2 blocks.
FAST_SNAPSHOTS = StorageConfig(fsync="never", snapshot_interval_blocks=2)


def test_replica_follows_writer_bit_identical(deployment, tmp_path):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        replica_server, replica = await start_replica(
            deployment, writer
        )
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 12, seed=21
            )
            await eventually(
                lambda: replica.height == len(writer.node.chain)
                and len(writer.node.chain) > 0,
                desc="replica caught up",
            )
            assert digest_of(replica_server) == digest_of(writer)
            # The replica's serve layer is fed: reads and receipts work.
            client = await RpcClient.connect(
                "127.0.0.1", replica_server.config.port
            )
            try:
                balance = await client.call(
                    "repro_getBalance",
                    {"address": hex(txs[0].sender)},
                )
                receipt = await client.call(
                    "repro_getReceipt",
                    {"txHash": txs[0].hash().hex()},
                )
                health = await client.call("repro_health")
            finally:
                await client.close()
            with writer.builder.state_lock, \
                    writer.node.state.untracked():
                writer_balance = writer.node.state.get_balance(
                    txs[0].sender
                )
            assert balance == writer_balance
            assert receipt is not None and receipt["success"] is True
            assert health["role"] == "replica"
            assert health["height"] == replica.height
            assert (
                health["stateDigest"] == digest_of(writer).hex()
            )
            assert health["replication"]["blocksApplied"] > 0
        finally:
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    asyncio.run(run())


def test_replica_rejects_writes_with_typed_error(deployment, tmp_path):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        replica_server, replica = await start_replica(
            deployment, writer
        )
        try:
            from repro.serve import protocol
            from repro.serve.loadgen import make_transactions

            tx = make_transactions(deployment, 1, seed=3)[0]
            client = await RpcClient.connect(
                "127.0.0.1", replica_server.config.port
            )
            try:
                with pytest.raises(RpcClientError) as err:
                    await client.call(
                        "repro_sendTransaction",
                        {"tx": protocol.tx_to_wire(tx)},
                    )
            finally:
                await client.close()
            assert err.value.code == READ_ONLY
            assert replica_server.stats()["readOnlyRejects"] == 1
        finally:
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    asyncio.run(run())


def test_injected_divergence_detected_and_healed(
    deployment, tmp_path, monkeypatch
):
    """Silent state corruption must trip the per-block state-root check
    — alone: the flat digest is out of reach while the drill runs, on
    the writer's commit path and on the replica's apply path — then
    heal through a snapshot resync."""
    injector = FaultInjector(FaultPlan(
        seed=3, network=NetworkFault(corrupt_at_height=2)
    ))

    def no_flat_digest(state):
        raise AssertionError("state_digest_bytes on a commit/apply path")

    async def run():
        writer = await start_writer(deployment, tmp_path)
        replica_server, replica = await start_replica(
            deployment, writer, fault_injector=injector
        )
        try:
            with monkeypatch.context() as patched:
                patched.setattr(
                    codec, "state_digest_bytes", no_flat_digest
                )
                await send_transfers(
                    deployment, writer.config.port, 16, seed=22
                )
                await eventually(
                    lambda: replica.stats()["divergences"] >= 1,
                    desc="divergence detected",
                )
                await eventually(
                    lambda: replica.stats()["resyncs"] >= 1
                    and replica.height == len(writer.node.chain)
                    and replica.node.state_root == writer.node.state_root,
                    desc="snapshot resync reconverged",
                )
            assert digest_of(replica_server) == digest_of(writer)
        finally:
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    asyncio.run(run())
    assert injector.injected["replica_state_corrupted"] == 1


def test_torn_stream_reconnects_with_backoff(deployment, tmp_path):
    injector = FaultInjector(FaultPlan(
        seed=5,
        network=NetworkFault(tear_after_blocks=2, tear_count=1),
    ))

    async def run():
        writer = await start_writer(
            deployment, tmp_path, fault_injector=injector
        )
        replica_server, replica = await start_replica(
            deployment, writer
        )
        try:
            await send_transfers(
                deployment, writer.config.port, 16, seed=23
            )
            await eventually(
                lambda: replica.stats()["reconnects"] >= 1,
                desc="reconnect after the injected tear",
            )
            await eventually(
                lambda: replica.height == len(writer.node.chain)
                and digest_of(replica_server) == digest_of(writer),
                desc="post-reconnect reconvergence",
            )
        finally:
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    asyncio.run(run())
    assert injector.injected["stream_torn"] == 1


def test_far_behind_replica_catches_up_from_snapshot(
    deployment, tmp_path
):
    async def run():
        writer = await start_writer(
            deployment, tmp_path, storage=FAST_SNAPSHOTS
        )
        # The snapshot-vs-stream call is the WRITER's: its streamer
        # compares the HELLO gap against its own catch-up threshold.
        writer.streamer.config.snapshot_catchup_blocks = 2
        try:
            await send_transfers(
                deployment, writer.config.port, 24, seed=24
            )
            height = len(writer.node.chain)
            assert height >= 6
            # Joins with a gap larger than snapshot_catchup_blocks, so
            # the writer must ship a snapshot, not the whole WAL.
            replica_server, replica = await start_replica(
                deployment, writer, snapshot_catchup_blocks=2
            )
            try:
                await eventually(
                    lambda: replica.height == len(writer.node.chain)
                    and digest_of(replica_server)
                    == digest_of(writer),
                    desc="snapshot catch-up",
                )
                assert replica.stats()["resyncs"] >= 1
                # The pre-snapshot prefix was never replayed.
                assert len(replica.node.chain) < replica.height
            finally:
                await stop_replica(replica_server, replica)
        finally:
            await writer.shutdown()

    asyncio.run(run())


def test_reconnect_after_resync_streams_without_second_snapshot(
    deployment, tmp_path
):
    """An execute replica that bootstrapped from a snapshot and then
    applied blocks must, on a torn stream, claim its live root — not the
    snapshot's — so the writer resumes the stream instead of diagnosing
    divergence and rewinding it to the snapshot on every reconnect."""
    injector = FaultInjector(FaultPlan(
        seed=6,
        network=NetworkFault(tear_after_blocks=2, tear_count=1),
    ))

    async def run():
        writer = await start_writer(
            deployment, tmp_path, fault_injector=injector,
            storage=FAST_SNAPSHOTS,
        )
        writer.streamer.config.snapshot_catchup_blocks = 2
        try:
            await send_transfers(
                deployment, writer.config.port, 24, seed=25
            )
            assert len(writer.node.chain) >= 6
            replica_server, replica = await start_replica(
                deployment, writer
            )
            try:
                await eventually(
                    lambda: replica.stats()["resyncs"] == 1
                    and replica.height == len(writer.node.chain),
                    desc="far-behind bootstrap from snapshot",
                )
                assert writer.streamer.stats()["snapshotsSent"] == 1
                # From here only a requested or diagnosed resync may
                # ship a snapshot: a reconnect gap is not a reason.
                writer.streamer.config.snapshot_catchup_blocks = 1 << 20
                heights = [replica.height]

                def reconverged():
                    heights.append(replica.height)
                    return (
                        injector.injected["stream_torn"] == 1
                        and replica.stats()["reconnects"] >= 1
                        and replica.height == len(writer.node.chain)
                        and replica.node.state_root
                        == writer.node.state_root
                    )

                await send_transfers(
                    deployment, writer.config.port, 24, seed=25, skip=24
                )
                await eventually(
                    reconverged, desc="post-tear reconvergence"
                )
                assert replica.stats()["blocksApplied"] >= 2
                assert replica.stats()["divergences"] == 0
                assert replica.stats()["resyncs"] == 1
                assert writer.streamer.stats()["snapshotsSent"] == 1
                assert heights == sorted(heights)
                assert digest_of(replica_server) == digest_of(writer)
            finally:
                await stop_replica(replica_server, replica)
        finally:
            await writer.shutdown()

    asyncio.run(run())


def test_streamer_has_no_opinion_on_an_unreadable_genesis_anchor(
    deployment, tmp_path
):
    """A height-0 claim is checked against the genesis snapshot's stamp;
    an anchor the streamer cannot read — damaged, or intact in another
    format — is "cannot vouch", not divergence and not a raise that
    would drop the follower's connection."""
    from repro.chain import rlp
    from repro.replication.streamer import WalStreamer
    from repro.storage import snapshot
    from repro.storage.wal import frame_record

    state = deployment.state.copy()
    root = Node(state=state).state_root
    path = tmp_path / snapshot.snapshot_name(0)
    for unreadable in (
        b"torn",
        frame_record(rlp.encode([  # the parent's unversioned layout
            rlp.encode_int(0), bytes(32), codec.state_to_rlp(state), root,
        ])),
    ):
        path.write_bytes(unreadable)
        assert not WalStreamer(str(tmp_path))._diverged(0, bytes(32))
    snapshot.write_snapshot(str(tmp_path), 0, state, root)
    streamer = WalStreamer(str(tmp_path))
    assert streamer._diverged(0, bytes(32))
    assert not streamer._diverged(0, root)


def test_apply_block_rolls_back_on_divergence(deployment):
    """Unit-level: a wrong root never commits, never leaks to reads."""
    import dataclasses

    writer_node = Node(state=deployment.state.copy())
    from repro.serve.loadgen import make_transactions

    for tx in make_transactions(deployment, 4, seed=9):
        writer_node.hear(tx)
    block = writer_node.propose_block(max_transactions=4)
    writer_node.execute_block(block)
    good_digest = codec.state_digest_bytes(writer_node.state)
    forged = dataclasses.replace(
        block,
        header=dataclasses.replace(block.header, state_root=b"\x00" * 32),
    )

    replica_node = Node(state=deployment.state.copy())
    builder = BlockBuilder(
        replica_node,
        ServeConfig(port=0, role="replica"),
    )
    replica = Replica(
        node=replica_node,
        builder=builder,
        writer_host="127.0.0.1",
        writer_stream_port=1,
    )
    before = codec.state_digest_bytes(replica_node.state)
    root_before = replica_node.state_root
    with pytest.raises(ReplicaDivergenceError) as err:
        replica._apply_block(codec.WalRecord(forged))
    assert err.value.height == 1
    assert err.value.actual == block.header.state_root
    # Rolled back completely — state and trie: nothing committed,
    # nothing served, proofs still bind to the last good root.
    assert codec.state_digest_bytes(replica_node.state) == before
    assert replica_node.state_root == root_before
    assert replica_node.chain == []
    assert replica.height == 0
    assert replica.stats()["blocksApplied"] == 0

    # The same block with the honest root applies cleanly.
    receipts = replica._apply_block(codec.WalRecord(block))
    assert len(receipts) == len(block.transactions)
    assert replica.height == 1
    assert replica_node.state_root == block.header.state_root
    assert (
        codec.state_digest_bytes(replica_node.state) == good_digest
    )


def test_a_block_that_does_not_link_is_refused_before_execution(deployment):
    """Right height, honest root, somebody else's parent: nothing in the
    post-state depends on ``parent_hash``, so only the linkage check
    keeps it off the chain under a hash the writer never sealed."""
    import dataclasses
    import time

    from repro.serve.loadgen import make_transactions

    writer_node = Node(state=deployment.state.copy())
    txs = make_transactions(deployment, 8, seed=9)
    for cut in (txs[:4], txs[4:]):
        for tx in cut:
            writer_node.hear(tx)
        writer_node.execute_block(writer_node.propose_block())
    first, second = writer_node.chain
    foreign = dataclasses.replace(
        second,
        header=dataclasses.replace(second.header, parent_hash=b"\x07" * 32),
    )
    assert foreign.header.state_root == second.header.state_root

    replica_node = Node(state=deployment.state.copy())
    replica = offline_replica(replica_node)

    async def handle(block):
        await replica._handle_block(asyncio.get_running_loop(), (
            int(time.time() * 1e6), 2, codec.encode_wal_payload(block),
        ))

    asyncio.run(handle(first))
    before = codec.state_digest_bytes(replica_node.state)
    with pytest.raises(ReplicaDivergenceError) as err:
        asyncio.run(handle(foreign))
    assert err.value.height == 1 and err.value.actual == first.hash()
    assert codec.state_digest_bytes(replica_node.state) == before
    assert [b.hash() for b in replica_node.chain] == [first.hash()]
    assert replica.height == 1 and replica.stats()["blocksApplied"] == 1

    asyncio.run(handle(second))
    assert replica_node.chain[-1].hash() == second.hash()
    assert replica_node.state_root == writer_node.state_root
