"""What the cyclic collector walks in a served process
(``repro.collector``).

Two claims hold the policy up. The served path makes no reference
cycles, so freezing what a full collection found live freezes no
garbage; and a cycle that does form among frozen objects is reclaimed
once the stated amount of new freezing has happened, never leaked for
ever.
"""

import asyncio
import collections
import gc
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.chain.node import Node
from repro.serve.batcher import BlockBuilder
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_transactions
from repro.storage import attach
from repro.storage.config import StorageConfig

#: Objects one ``gc.collect()`` may free after the served blocks below.
#: No source is allowed: boot garbage (imports, the deployment, the
#: store's genesis snapshot, the first block's worker thread) is
#: collected before the window opens, and inside it every transaction,
#: receipt, trie node, WAL record and snapshot is freed by reference
#: counting or stays live.
CYCLE_GARBAGE_BOUND = 0
BLOCKS = 64
BLOCK_SIZE = 128


@pytest.mark.parametrize("workload, settings", [
    ("transfer", {}),
    ("hotburst", dict(packing="conflict_aware", executor="parallel",
                      num_workers=2)),
])
def test_the_served_path_makes_no_reference_cycles(
    deployment, tmp_path, workload, settings
):
    txs = make_transactions(
        deployment, (BLOCKS + 1) * BLOCK_SIZE, workload=workload, seed=1
    )
    node = Node(state=deployment.state.copy())
    attach(node, str(tmp_path), StorageConfig(
        fsync="never", snapshot_interval_blocks=16,
    ))
    config = ServeConfig(block_size_target=BLOCK_SIZE, **settings)

    async def serve(builder, batch):
        await asyncio.gather(*[
            builder.receipt_future(builder.submit(tx)) for tx in batch
        ])

    async def run():
        builder = BlockBuilder(node, config)
        builder.start()
        await serve(builder, txs[:BLOCK_SIZE])  # boot: first block
        booted = len(node.chain)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what it finds, to name it
        try:
            for start in range(BLOCK_SIZE, len(txs), BLOCK_SIZE):
                await serve(builder, txs[start:start + BLOCK_SIZE])
            found = gc.collect()
            kinds = collections.Counter(
                type(obj).__name__ for obj in gc.garbage
            )
        finally:
            gc.garbage.clear()
            gc.set_debug(0)
            gc.enable()
        await builder.drain_and_stop()
        return len(node.chain) - booted, found, kinds

    try:
        blocks, found, kinds = asyncio.run(run())
    finally:
        node.store.close()
    assert blocks >= BLOCKS
    assert found <= CYCLE_GARBAGE_BOUND, (
        f"{blocks} served {workload} blocks left {found} objects only the "
        f"cyclic collector could free ({kinds.most_common(8)}): the served "
        "path now makes reference cycles. repro.collector freezes what "
        "each full collection finds live, so cycles that become garbage "
        "later are only reclaimed at its next full walk — break the cycle "
        "(a weakref, or clearing the reference when done) instead of "
        "raising the bound."
    )


#: Run in a fresh interpreter: the rule's threshold is what the first
#: full walk found live, and a test process's heap is too big to match
#: with ballast.
RECLAIM = textwrap.dedent("""
    import gc
    import weakref

    from repro.collector import CollectorPolicy
    from repro.obs import MetricsRegistry


    class Cycle:
        pass


    callbacks = list(gc.callbacks)
    metrics = MetricsRegistry()
    reclaimed = []
    gc.disable()  # explicit collections only
    with CollectorPolicy(metrics) as policy:
        gc.collect()  # nothing frozen yet: walks everything
        assert metrics.value("gc.unfrozen_walks") == 1
        live = policy.live_at_walk
        assert live > 0 and gc.get_freeze_count() >= live

        cycle = Cycle()
        cycle.self = cycle
        ref = weakref.ref(cycle, lambda _: reclaimed.append(True))
        gc.collect()  # shows the cycle live: frozen
        del cycle
        gc.collect()  # garbage now, but frozen: not walked
        assert not reclaimed and ref() is not None

        # New live objects, frozen by the next collections, to just
        # short of what the first walk found live...
        ballast = [[] for _ in range(live - policy.frozen_since - 8)]
        gc.collect()
        assert policy.frozen_since < live
        gc.collect()
        assert not reclaimed, "reclaimed before the stated freezing"
        # ...then past it: the next full collection walks everything.
        ballast.append([[] for _ in range(16)])
        gc.collect()
        assert policy.frozen_since >= live and not reclaimed
        gc.collect()
        assert reclaimed, "frozen garbage outlived the stated freezing"
        assert metrics.value("gc.unfrozen_walks") == 2
        assert metrics.value("gc.collections", generation=2) == 7
        assert metrics.value("gc.frozen") == policy.live_at_walk
    assert gc.callbacks == callbacks
    # Nothing stays frozen: the count is 0 again (CPython 3.12 starts
    # with a few hundred immortal runtime tuples frozen; the policy's
    # first full walk released them with the rest).
    assert gc.get_freeze_count() == 0, "leaving left objects frozen"
    print("ok")
""")


def test_frozen_garbage_is_reclaimed_after_the_stated_freezing():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", RECLAIM], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", (
        done.stdout + done.stderr
    )
