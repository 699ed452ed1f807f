"""A CLI-launched process drains on SIGTERM, and on a SIGINT it inherited
as ignored (a non-interactive shell's ``cmd &``).

The first signal cancels the serving task into its ``finally`` drain:
parked waits get their receipts, everything admitted is cut into blocks
or spilled to ``mempool.rlp``, and the process exits 0. Before the drain
handled them, SIGTERM killed ``repro serve`` outright (exit -15: no
drain, the pool lost) and an inherited SIG_IGN left SIGINT ignored.
"""

import asyncio
import os
import signal

import pytest

from repro.drill import ReproProcess
from repro.serve import RpcClient, protocol
from repro.serve.loadgen import make_transactions
from repro.storage.codec import decode_wal_record, mempool_from_rlp
from repro.storage.store import MEMPOOL_NAME, WAL_NAME
from repro.storage.wal import scan_wal


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def durable_hashes(data_dir) -> set[bytes]:
    """Every transaction *data_dir* holds: committed in the WAL or
    waiting in the spilled mempool."""
    hashes = {
        tx.hash()
        for payload in scan_wal(os.path.join(data_dir, WAL_NAME)).records
        for tx in decode_wal_record(payload).block.transactions
    }
    spill = os.path.join(data_dir, MEMPOOL_NAME)
    if os.path.exists(spill):
        with open(spill, "rb") as fh:
            hashes.update(tx.hash() for tx, _ in mempool_from_rlp(fh.read()))
    return hashes


@pytest.mark.parametrize(
    "signum, preexec_fn",
    [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
    ids=["sigterm", "sigint-inherited-ignored"],
)
def test_a_served_process_drains_on(signum, preexec_fn, deployment,
                                    tmp_path):
    txs = make_transactions(deployment, 4, seed=21)
    # A batching window far longer than the test: nothing is cut before
    # the signal, so the drain has a pool and a parked wait to settle.
    argv = ["serve", "--port", "0", "--data-dir", str(tmp_path),
            "--fsync", "never", "--interval-ms", "600000",
            "--block-size", "1000"]
    with ReproProcess(argv, preexec_fn=preexec_fn) as served:

        async def drive():
            client = await RpcClient.connect("127.0.0.1", served.port)
            try:
                for tx in txs[1:]:
                    await client.call("repro_sendTransaction", {
                        "tx": protocol.tx_to_wire(tx), "wait": False,
                    })
                parked = asyncio.ensure_future(client.call(
                    "repro_sendTransaction",
                    {"tx": protocol.tx_to_wire(txs[0])},
                ))
                # One connection's lines are handled in order: once this
                # is answered, the send above is parked.
                await client.call("repro_health")
                stopping = asyncio.get_running_loop().run_in_executor(
                    None, served.stop, signum
                )
                receipt = await asyncio.wait_for(parked, 60)
                return receipt, await stopping
            finally:
                await client.close()

        receipt, code = asyncio.run(drive())
    assert code == 0, served.stderr_lines
    assert "draining…" in served.stderr_lines
    assert receipt["txHash"] == txs[0].hash().hex()
    assert receipt["success"] and receipt["blockHeight"] >= 1
    assert {tx.hash() for tx in txs} <= durable_hashes(tmp_path)


@pytest.mark.parametrize(
    "signum, preexec_fn",
    [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
    ids=["sigterm", "sigint-inherited-ignored"],
)
def test_a_proxy_stops_on(signum, preexec_fn):
    # No backend has to answer for the proxy to listen and stop.
    argv = ["proxy", "--port", "0", "--writer", "127.0.0.1:9"]
    with ReproProcess(argv, preexec_fn=preexec_fn) as proxy:
        code = proxy.stop(signum)
    assert code == 0, proxy.stderr_lines
    assert any(line.startswith("proxied 0 reads")
               for line in proxy.stderr_lines)
