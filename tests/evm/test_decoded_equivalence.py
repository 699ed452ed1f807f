"""Differential harness: the fused trace-free loop ≡ the observed loop,
bit for bit.

Both loops of :mod:`repro.evm.decoded` dispatch the same ``_h_*``
handlers, so an opcode's pop order, gas rule and effect cannot differ
between them. What can differ, and what this suite holds to *same
receipts (including the exception class name in ``error``), same gas,
same logs, same post-state digest*, is everything around the handlers:

* **fusion is sound** — the trace-free loop runs superinstructions and
  folded constant chains, the observed loop one plain entry per
  instruction; a fused handler that staged a charge or a depth check out
  of per-instruction order would fail some limit of the sweeps below;
* **observation does not perturb** — reading operands, producers,
  results and the gas meter around each handler leaves the execution
  alone.

It checks that three ways:

* hypothesis-generated workload blocks (dependency chains, varied seeds)
  executed by both loops;
* crafted edge-case programs — revert, OOG at every gas limit up to the
  success threshold (which probes failure *inside* fused patterns),
  invalid jumps, call-depth recursion, static-context violations,
  CREATE/CREATE2/SELFDESTRUCT, stack depth at the 1024 boundary;
* MTPU replay under PU-fault injection: the committed receipts of a
  faulted spatio-temporal run still match the trace-free sequential run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction, WorldState
from repro.contracts.asm import assemble
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import run_spatial_temporal
from repro.evm import EVM, Tracer
from repro.evm.context import BlockContext
from repro.evm.decoded import DECODE_CACHE
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault
from repro.obs import use_registry
from repro.serve.loadgen import make_transactions
from repro.storage.codec import state_digest_bytes
from repro.workload import generate_dependency_block

ALICE = 0xA11CE
BOB = 0xB0B
CONTRACT = 0xC0DE


def _both_paths(state, txs, block=None):
    """Execute *txs* on copies of *state* through both loops.

    Returns ``(fast_receipts, observed_receipts, fast_digest,
    observed_digest)``. The observed run attaches a full
    :class:`Tracer` — the exact configuration discovery/timing/profiling
    use.
    """
    results = []
    for mode in ("fast", "observed"):
        world = state.copy()
        if mode == "fast":
            evm = EVM(world, block=block)
            assert evm._fast, "NullTracer run must take the trace-free loop"
        else:
            evm = EVM(world, block=block, tracer=Tracer())
            assert not evm._fast
        receipts = [evm.execute_transaction(tx) for tx in txs]
        results.append((receipts, state_digest_bytes(world)))
    (fast, fast_digest), (observed, observed_digest) = results
    return fast, observed, fast_digest, observed_digest


def _assert_identical(state, txs, block=None):
    fast, observed, fast_digest, observed_digest = _both_paths(
        state, txs, block=block
    )
    for fast_receipt, observed_receipt in zip(fast, observed):
        assert fast_receipt == observed_receipt
        assert fast_receipt.gas_used == observed_receipt.gas_used
        assert fast_receipt.error == observed_receipt.error
        assert fast_receipt.logs == observed_receipt.logs
    assert fast_digest == observed_digest


# ---------------------------------------------------------------------------
# Random workload blocks
# ---------------------------------------------------------------------------


class TestWorkloadBlocks:
    @settings(max_examples=12, deadline=None)
    @given(
        num_transactions=st.integers(min_value=2, max_value=12),
        ratio=st.sampled_from([0.0, 0.4, 1.0]),
        seed=st.integers(min_value=0, max_value=511),
    )
    def test_generated_blocks_bit_identical(
        self, deployment, num_transactions, ratio, seed
    ):
        block = generate_dependency_block(
            deployment, num_transactions=num_transactions,
            target_ratio=ratio, seed=seed,
        )
        _assert_identical(block.deployment.state, block.transactions)

    def test_deployed_suite_stream_decodes_once_and_runs_trace_free(
        self, deployment
    ):
        """200 hot ERC-20 calls over the whole deployed suite: both
        loops agree, and the serving loop decodes each code blob once,
        fuses, and takes every transaction trace-free."""
        txs = make_transactions(deployment, 200, workload="erc20", seed=7)
        _assert_identical(deployment.state, txs)
        DECODE_CACHE.clear()
        with use_registry() as registry:
            evm = EVM(deployment.state.copy())
            for tx in txs:
                assert evm.execute_transaction(tx).success
        counters = registry.counters_flat()
        assert counters["evm.fast_path_txs"] == len(txs)
        assert counters["evm.fused_instructions"] > 0
        # Programs are not re-decoded: one miss per distinct blob.
        assert 1 <= counters["evm.decode_cache_misses"] <= len(DECODE_CACHE) + 1
        assert counters["evm.decode_cache_hits"] >= 1


# ---------------------------------------------------------------------------
# Crafted edge cases
# ---------------------------------------------------------------------------

#: name -> assembly exercising one failure mode or fused pattern.
EDGE_PROGRAMS = {
    "revert_with_data": (
        "PUSH 0xdead\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nREVERT"
    ),
    "invalid_jump_fused": "PUSH 7\nJUMP",  # fused PUSH+JUMP, bad target
    "invalid_jump_dynamic": "PUSH 0\nCALLDATALOAD\nJUMP",
    "invalid_jumpi_taken": "PUSH 1\nPUSH 9\nSWAP1\nJUMPI",
    "invalid_opcode": "PUSH 1\nINVALID",
    "underflow_add": "PUSH 1\nADD\nSTOP",
    "underflow_pop": "POP",
    "underflow_swap1_pop": "PUSH 1\nSWAP1\nPOP\nSTOP",
    "static_violation": (
        # STATICCALL into self at @store, which SSTOREs.
        "PUSH 0\nCALLDATALOAD\nPUSH @store\nJUMPI\n"
        "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 1\nADDRESS\nGAS\n"
        "STATICCALL\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN\n"
        "store:\nPUSH 1\nPUSH 0\nSSTORE\nSTOP"
    ),
    "sstore_and_refund": (
        "PUSH 5\nPUSH 1\nSSTORE\nPUSH 0\nPUSH 1\nSSTORE\nSTOP"
    ),
    "logs_two_topics": (
        "PUSH 0xbeef\nPUSH 0\nMSTORE\n"
        "PUSH 2\nPUSH 1\nPUSH 32\nPUSH 0\nLOG2\nSTOP"
    ),
    "sha3_and_exp": (
        "PUSH 0xff\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nSHA3\n"
        "PUSH 3\nEXP\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
    ),
    "const_chain_mix": (
        "PUSH 2\nPUSH 3\nMUL\nPUSH 10\nADD\nDUP1\nSUB\n"
        "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
    ),
    "call_depth_recursion": (
        # Self-call with all forwardable gas until depth/gas exhaustion.
        "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nADDRESS\nGAS\nCALL\n"
        "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
    ),
    "selfdestruct": "PUSH 0xb0b\nSELFDESTRUCT",
    "create_child": (
        # CREATE an empty-code child, return its address.
        "PUSH 0\nPUSH 0\nPUSH 0\nCREATE\n"
        "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
    ),
    "returndatacopy_oob": (
        "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nADDRESS\nGAS\nSTATICCALL\nPOP\n"
        "PUSH 32\nPUSH 0\nPUSH 0\nRETURNDATACOPY\nSTOP"
    ),
}


def _fresh_state(code: bytes) -> WorldState:
    state = WorldState()
    state.set_balance(ALICE, 10**24)
    state.set_balance(BOB, 10**21)
    state.set_code(CONTRACT, code)
    state.clear_journal()
    return state


class TestEdgePrograms:
    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_ample_gas(self, name):
        state = _fresh_state(assemble(EDGE_PROGRAMS[name]))
        txs = [Transaction(sender=ALICE, to=CONTRACT, data=b"\x00" * 32,
                           gas_limit=5_000_000)]
        _assert_identical(state, txs)

    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_every_gas_limit_to_success(self, name):
        """Sweep the gas limit from intrinsic cost to success.

        Each limit moves the OutOfGas point one instruction (or one
        fused stage) earlier — if a fused handler charged gas in the
        wrong order relative to its checks, some limit in this sweep
        would produce a different error class or gas_used.
        """
        code = assemble(EDGE_PROGRAMS[name])
        state = _fresh_state(code)
        data = b"\x00" * 32
        probe = EVM(state.copy())
        ample = probe.execute_transaction(Transaction(
            sender=ALICE, to=CONTRACT, data=data, gas_limit=5_000_000
        ))
        # Cap the sweep (call-depth recursion burns millions of gas).
        ceiling = min(ample.gas_used + 2, 60_000)
        for gas_limit in range(20_000, ceiling, 7):
            txs = [Transaction(sender=ALICE, to=CONTRACT, data=data,
                               gas_limit=gas_limit)]
            _assert_identical(state, txs)


class TestStackDepthBoundary:
    def _deep_code(self, fill: int, tail: str) -> bytes:
        return assemble("\n".join(["PUSH 1"] * fill) + "\n" + tail)

    @pytest.mark.parametrize("tail", [
        "PUSH 2\nSTOP",            # fused-const overflow staging
        "DUP1\nSTOP",
        "PUSH 2\nADD\nSTOP",       # push+bin at the boundary
        "DUP1\nMUL\nSTOP",
        "PUSH 0\nCALLDATALOAD\nSTOP",
    ])
    @pytest.mark.parametrize("fill", [1022, 1023, 1024])
    def test_overflow_at_1024(self, fill, tail):
        state = _fresh_state(self._deep_code(fill, tail))
        txs = [Transaction(sender=ALICE, to=CONTRACT, data=b"\x00" * 32,
                           gas_limit=5_000_000)]
        _assert_identical(state, txs)


class TestCodeMutationCoherence:
    def test_create2_redeploy_cycle(self, deployment):
        """Deploy → selfdestruct → redeploy different code at the same
        CREATE2 address; both paths agree at every step."""
        v1 = assemble("PUSH 1\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        v2 = assemble("PUSH 2\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        state = WorldState()
        state.set_balance(ALICE, 10**24)
        state.clear_journal()
        for code in (v1, v2, v1):
            world = state.copy()
            address = 0xCAFE
            world.set_code(address, code)
            txs = [
                Transaction(sender=ALICE, to=address, gas_limit=200_000),
            ]
            _assert_identical(world, txs)
            # Destroy between rounds on the shared base.
            state.delete_account(address)


# ---------------------------------------------------------------------------
# Fault injection: MTPU replay vs fast sequential path
# ---------------------------------------------------------------------------


class TestFaultInjection:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=255),
        num_pus=st.integers(min_value=2, max_value=4),
        fault_pu=st.integers(min_value=0, max_value=3),
        at_cycle=st.integers(min_value=0, max_value=4_000),
    )
    def test_faulted_mtpu_matches_fast_path(
        self, deployment, seed, num_pus, fault_pu, at_cycle
    ):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.5, seed=seed,
        )
        pu_faults = ()
        if fault_pu < num_pus:
            pu_faults = (PUFault(
                pu_id=fault_pu, kind=PU_DEAD, at_cycle=at_cycle,
            ),)
        injector = FaultInjector(FaultPlan(seed=seed, pu_faults=pu_faults))

        executor = MTPUExecutor(
            block.deployment.state.copy(), num_pus=num_pus,
            pu_config=PUConfig(),
        )
        result = run_spatial_temporal(
            executor, block.transactions, block.dag_edges,
            fault_injector=injector,
        )

        world = block.deployment.state.copy()
        evm = EVM(world, block=BlockContext())
        assert evm._fast
        fast_receipts = [
            evm.execute_transaction(tx) for tx in block.transactions
        ]
        assert result.receipts_in_block_order(
            block.transactions
        ) == fast_receipts
