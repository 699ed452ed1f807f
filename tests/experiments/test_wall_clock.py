"""The wall-clock instrument (``experiments/perf.py: measure_engines``).

What is pinned is what each lane *is* — so a ratio printed by
``obs-report --wall-clock`` is a ratio to the engine that serves — not
how fast anything ran.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.evm import EVM
from repro.experiments import perf
from repro.experiments.perf import BASELINE, LANES, measure_engines
from repro.obs import use_registry
from repro.workload.generator import (
    generate_dependency_block,
    generate_dynamic_block,
)

N = 16


@pytest.fixture(scope="module", params=["dependency", "dynamic"])
def block(request, deployment):
    if request.param == "dependency":
        return generate_dependency_block(
            deployment, num_transactions=N, target_ratio=0.5, seed=7
        )
    return generate_dynamic_block(deployment, num_transactions=N, seed=11)


def test_every_lane_lands_on_the_baselines_receipts_and_digest(block):
    """Parity is asserted inside, per lane and repeat: returning at all
    means it held. The lanes' effects are the sequential ones."""
    wall = measure_engines(block, repeats=1)
    assert list(wall["lanes"]) == list(LANES)
    assert next(iter(LANES)) == BASELINE  # the reference runs first
    for name, lane in wall["lanes"].items():
        assert len(lane["repeat_seconds"]) == 1
        assert lane["seconds"] > 0 and lane["tx_per_second"] > 0
        assert not lane.get("fell_back"), name
    assert wall["lanes"][BASELINE]["ratio_to_sequential"] == 1.0


def test_the_baseline_is_one_evm_pass(block):
    """No discovery, no DAG build: exactly one execution per
    transaction (the baseline this replaced ran every one twice)."""
    state = block.deployment.state.copy()
    with use_registry() as registry:
        _, receipts = LANES[BASELINE](state, block.transactions)
        counters = registry.counters_flat()
    assert counters["evm.tx_executions"] == N
    reference = block.deployment.state.copy()
    evm = EVM(reference)
    assert receipts == [
        evm.execute_transaction(tx) for tx in block.transactions
    ]
    assert state.state_digest() == reference.state_digest()


def test_the_parallel_lane_replays_and_dispatches_nothing(block):
    """Its discovery is the block's execution: one run per transaction,
    nothing replayed and nothing dispatched — nobody should read this
    lane as multicore."""
    state = block.deployment.state.copy()
    with use_registry() as registry:
        LANES["parallel"](state, block.transactions)
        counters = registry.counters_flat()
    assert counters["evm.tx_executions"] == N
    assert "evm.tx_reuses" not in counters


def test_a_lane_that_diverges_is_named(block, monkeypatch):
    honest = LANES["parallel"]

    def sabotaged(state, transactions):
        out = honest(state, transactions)
        state.set_balance(0xDEAD, 1)
        return out

    monkeypatch.setitem(perf.LANES, "parallel", sabotaged)
    with pytest.raises(
        AssertionError, match="lane 'parallel': state digest"
    ):
        measure_engines(block, repeats=1)

    def wrong_receipts(state, transactions):
        seconds, receipts = honest(state, transactions)
        return seconds, receipts[:-1]

    monkeypatch.setitem(perf.LANES, "parallel", wrong_receipts)
    with pytest.raises(AssertionError, match="lane 'parallel': receipts"):
        measure_engines(block, repeats=1)


def test_obs_report_prints_one_line_per_lane(tmp_path, capsys):
    assert main([
        "obs-report", "--transactions", "8", "--wall-clock",
        "--out", str(tmp_path / "report.json"),
    ]) == 0
    lines = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("[wall-clock ")
    ]
    assert [line.split()[1].rstrip(":") for line in lines] == list(LANES)
    assert all("x sequential" in line for line in lines)
