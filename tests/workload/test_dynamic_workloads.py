"""Dynamic-storage-key workloads: the blocks declared access sets miss.

These are transactions whose storage keys derive from *calldata* — a
path router whose reserve slots depend on which token pair the caller
names, a batch airdrop whose recipient loop count rides in an argument,
and a delegatecall proxy whose hot path lands in proxy-local storage. These tests pin three facts the
benchmark leans on: the contracts execute successfully, their access
sets genuinely vary with calldata (so no static declaration covers
them), and :func:`generate_dynamic_block` emits the blocks *without*
declared access sets or DAG edges.
"""

import pytest

from repro.chain.dag import discover_access_sets
from repro.contracts.registry import (
    AIRDROP,
    DAI,
    PATH_ROUTER,
    ROUTER_PROXY,
    TOKEN_A,
    TOKEN_B,
    build_deployment,
)
from repro.evm import EVM
from repro.workload import ActionLibrary, generate_dynamic_block
from repro.workload.actions import PlannedCall

import random


@pytest.fixture(scope="module")
def dyn_deployment():
    return build_deployment(num_accounts=32)


def run_one(deployment, call):
    state = deployment.state.copy()
    library = ActionLibrary(deployment, random.Random(0))
    tx = library.to_transaction(call)
    receipt = EVM(state).execute_transaction(tx)
    return receipt, state


class TestDynamicContracts:
    def test_path_router_two_hop_swap_succeeds(self, dyn_deployment):
        accounts = dyn_deployment.accounts
        call = PlannedCall(
            contract="PathRouter", sender=accounts[0],
            signature="swapExactPath(uint256,uint256,address,address,"
                      "address)",
            args=(10_000, 1, TOKEN_A, DAI, TOKEN_B),
        )
        receipt, state = run_one(dyn_deployment, call)
        assert receipt.success
        assert receipt.logs  # PATH_SWAP event

    def test_router_proxy_delegates_to_path_router(self, dyn_deployment):
        accounts = dyn_deployment.accounts
        call = PlannedCall(
            contract="RouterProxy", sender=accounts[1],
            signature="swapExactPath(uint256,uint256,address,address,"
                      "address)",
            args=(10_000, 1, TOKEN_A, DAI, TOKEN_B),
        )
        receipt, state = run_one(dyn_deployment, call)
        assert receipt.success
        # Delegatecall semantics: the reserve mutation lands in the
        # *proxy's* storage, never the implementation's.
        library = ActionLibrary(dyn_deployment, random.Random(0))
        tx = library.to_transaction(call)
        artifact = discover_access_sets([tx],
                                        dyn_deployment.state.copy())[0]
        touched = {addr for addr, _slot in artifact.writes}
        assert ROUTER_PROXY in touched
        assert PATH_ROUTER not in touched

    def test_airdrop_fans_out_per_count_argument(self, dyn_deployment):
        accounts = dyn_deployment.accounts
        first = 0xA0_0000

        def writes_for(count):
            call = PlannedCall(
                contract="AirdropDistributor", sender=accounts[2],
                signature="airdrop(address,address,uint256,uint256)",
                args=(DAI, first, count, 5),
            )
            library = ActionLibrary(dyn_deployment, random.Random(0))
            tx = library.to_transaction(call)
            artifact = discover_access_sets(
                [tx], dyn_deployment.state.copy()
            )[0]
            return artifact.writes

        # The write set scales with the loop bound carried in calldata —
        # the signature static declaration cannot express.
        assert len(writes_for(8)) > len(writes_for(3))

    def test_access_sets_vary_with_calldata(self, dyn_deployment):
        """Same (to, selector) shape, different arguments → different
        storage keys: the case static per-shape estimates miss."""
        accounts = dyn_deployment.accounts
        library = ActionLibrary(dyn_deployment, random.Random(0))
        sig = "swapExactPath(uint256,uint256,address,address,address)"

        def keys(path):
            call = PlannedCall(
                contract="PathRouter", sender=accounts[0],
                signature=sig, args=(10_000, 1, *path),
            )
            tx = library.to_transaction(call)
            artifact = discover_access_sets(
                [tx], dyn_deployment.state.copy()
            )[0]
            return {
                (addr, slot) for addr, slot in artifact.writes
                if addr == PATH_ROUTER
            }

        assert keys((TOKEN_A, DAI, TOKEN_B)) != keys(
            (TOKEN_B, TOKEN_A, DAI)
        )

    def test_planners_emit_successful_calls(self, dyn_deployment):
        library = ActionLibrary(dyn_deployment, random.Random(7))
        state = dyn_deployment.state.copy()
        evm = EVM(state)
        ok = 0
        total = 45
        for index in range(total):
            name = ("PathRouter", "RouterProxy",
                    "AirdropDistributor")[index % 3]
            call = library.plan(name)
            receipt = evm.execute_transaction(library.to_transaction(call))
            ok += bool(receipt.success)
            state.clear_journal()
        assert ok == total


class TestGenerateDynamicBlock:
    def test_block_ships_no_declared_access_sets(self):
        block = generate_dynamic_block(num_transactions=24, seed=3)
        assert block.access_sets == []
        assert block.dag_edges == []
        assert len(block.transactions) == 24

    def test_deterministic_by_seed(self):
        a = generate_dynamic_block(num_transactions=16, seed=5)
        b = generate_dynamic_block(
            deployment=a.deployment, num_transactions=16, seed=5
        )
        assert [t.hash() for t in a.transactions] == [
            t.hash() for t in b.transactions
        ]

    def test_transactions_execute_successfully(self):
        block = generate_dynamic_block(num_transactions=32, seed=9)
        state = block.deployment.state.copy()
        evm = EVM(state)
        receipts = [
            evm.execute_transaction(tx) for tx in block.transactions
        ]
        assert all(r.success for r in receipts)

    def test_targets_only_dynamic_contracts(self):
        block = generate_dynamic_block(num_transactions=40, seed=2)
        targets = {tx.to for tx in block.transactions}
        assert targets <= {PATH_ROUTER, AIRDROP, ROUTER_PROXY}
        assert AIRDROP in targets  # the majority archetype


def test_loadgen_dynamic_workload_round_trips():
    from repro.serve.loadgen import make_transactions

    deployment = build_deployment(num_accounts=16)
    txs = make_transactions(deployment, 12, workload="dynamic", seed=3)
    state = deployment.state.copy()
    evm = EVM(state)
    receipts = [evm.execute_transaction(tx) for tx in txs]
    assert all(r.success for r in receipts)
