"""Golden-trace regression: a small ERC-20 block's metrics and spans.

One seeded ERC-20 block runs through ``Node`` on the ``mtpu`` engine
(proposal with traced discovery, MTPU replay, commit) with a
:class:`~repro.obs.LogicalClock`-driven tracer, and the resulting
counters + span forest are compared byte-for-byte against the committed
fixture. Every value is deterministic — model cycles, logical
timestamps, seeded workloads — so any diff is a real behaviour change in
the interpreter, cache, scheduler or tracer, not noise.

To refresh after an intentional change::

    PYTHONPATH=src python -m pytest tests/obs/test_golden_trace.py \\
        --update-golden

then review the fixture diff before committing it.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.chain.node import Node
from repro.evm.context import BlockContext
from repro.evm.decoded import DECODE_CACHE
from repro.obs import LogicalClock, SpanTracer, use_registry, use_tracing
from repro.parallel import SpeculativeBlockExecutor
from repro.workload import ActionLibrary

GOLDEN = pathlib.Path(__file__).parent / "golden" / "erc20_block.json"

#: Wall-clock metric suffixes are excluded by construction (only
#: counters are snapshotted; ``*.seconds`` series are histograms).
NUM_TRANSACTIONS = 10
NUM_PUS = 2
SEED = 11


def run_erc20_block(deployment) -> dict:
    """Deterministic instrumented run; returns the golden payload."""
    # The decoded-program cache is process-global; start cold so the
    # evm.decode_cache_* counters don't depend on which tests ran before.
    DECODE_CACHE.clear()
    tracer = SpanTracer(clock=LogicalClock())
    with use_registry() as registry, use_tracing(tracer):
        node = Node(state=deployment.state.copy())
        library = ActionLibrary(deployment, random.Random(SEED))
        for i in range(NUM_TRANSACTIONS):
            contract = ("Dai", "TetherToken")[i % 2]
            node.hear(library.to_transaction(library.plan(contract)))
        block = node.propose_block(executor="mtpu")
        node.execute_block(block, executor="mtpu", num_workers=NUM_PUS)
        # Speculative (OCC) lane: the same deterministic library drives
        # a small block through the Block-STM-shaped engine so the
        # speculate.* counters are pinned by the fixture too.
        occ_state = deployment.state.copy()
        occ_txs = [
            library.to_transaction(
                library.plan(("Dai", "TetherToken")[i % 2])
            )
            for i in range(NUM_TRANSACTIONS)
        ]
        occ_result = SpeculativeBlockExecutor(
            occ_state, block=BlockContext(height=1)
        ).execute_block(occ_txs)
    assert node.chain == [block]
    assert len(occ_result.receipts) == NUM_TRANSACTIONS
    return {
        "config": {
            "transactions": NUM_TRANSACTIONS,
            "pus": NUM_PUS,
            "seed": SEED,
        },
        "counters": registry.counters_flat(),
        "spans": tracer.to_dicts(),
    }


def test_erc20_block_matches_golden_trace(deployment, request):
    payload = run_erc20_block(deployment)
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(rendered)
        pytest.skip(f"golden fixture rewritten: {GOLDEN}")

    assert GOLDEN.exists(), (
        f"missing {GOLDEN}; generate it with --update-golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert payload["counters"] == golden["counters"]
    assert payload["spans"] == golden["spans"]
    assert payload["config"] == golden["config"]


def test_speculation_is_metered(deployment):
    """The OCC lane publishes its cost accounting: executions cover the
    block, and every validation/abort/retry series is present."""
    counters = run_erc20_block(deployment)["counters"]
    assert counters["speculate.executions"] >= NUM_TRANSACTIONS
    assert counters["speculate.validations"] >= NUM_TRANSACTIONS
    assert counters["speculate.executions"] == (
        NUM_TRANSACTIONS + counters["speculate.aborts"]
    )
    for name in ("speculate.aborts", "speculate.retries",
                 "speculate.deferrals"):
        assert name in counters


def test_merkleization_is_metered(deployment):
    """Committing a block Merkleizes: trie.* counters must appear."""
    counters = run_erc20_block(deployment)["counters"]
    assert counters["trie.root_updates"] == 1
    assert counters["trie.nodes_rehashed"] > 0


def test_run_is_reproducible(deployment):
    """The golden payload is identical across back-to-back runs."""
    assert run_erc20_block(deployment) == run_erc20_block(deployment)
