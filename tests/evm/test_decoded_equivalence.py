"""Differential harness: the block-compiled trace-free loop ≡ the
observed loop, bit for bit.

Both loops of :mod:`repro.evm.decoded` run one statement of each opcode
(a template or an ``_h_*`` handler), so an opcode's pop order, gas rule
and effect cannot differ between them. What can differ, and what this
suite holds to *same receipts (including the exception class name in
``error``), same gas, same logs, same artifacts (access sets, read
values, journal ops), same post-state digest*, is everything around that
statement:

* **blocks are sound** — the trace-free loop checks a block's stack once
  and settles static gas in groups, the observed loop checks and charges
  each instruction; a deferred charge that moved an OutOfGas across a
  state read would change the access set (and so the DAG) at some limit
  of the sweeps below;
* **observation does not perturb** — reading operands, producers,
  results and the gas meter around each entry leaves the execution
  alone.

It checks that four ways:

* hypothesis-generated workload blocks (dependency chains, varied seeds)
  executed by both loops;
* crafted edge-case programs — revert, OOG at every gas limit up to the
  success threshold (which probes failure *inside* a block), invalid
  jumps, call-depth recursion, static-context violations,
  CREATE/CREATE2/SELFDESTRUCT, stack depth at the 1024 boundary;
* every ``(contract, selector)`` an ``erc20`` stream reaches, at every
  gas limit from its intrinsic cost to success (``--gas-stride`` apart;
  CI runs every limit);
* MTPU replay under PU-fault injection: the committed receipts of a
  faulted spatio-temporal run still match the trace-free sequential run.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction, WorldState
from repro.chain.journal import execute_captured
from repro.contracts.asm import assemble
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import run_spatial_temporal
from repro.evm import EVM, Tracer
from repro.evm.context import BlockContext
from repro.evm.decoded import DECODE_CACHE
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault
from repro.obs import use_registry
from repro.serve.loadgen import make_transactions
from repro.workload import generate_dependency_block
from tests.conftest import assert_loops_agree, assert_same_artifact

ALICE = 0xA11CE
BOB = 0xB0B
CONTRACT = 0xC0DE


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
        assert_loops_agree(block.deployment.state, block.transactions)

    def test_deployed_suite_stream_decodes_once_and_runs_trace_free(
        self, deployment
    ):
        """200 hot ERC-20 calls over the whole deployed suite: both
        loops agree, and the serving loop decodes each code blob once,
        compiles each block it enters once, and takes every transaction
        trace-free."""
        txs = make_transactions(deployment, 200, workload="erc20", seed=7)
        assert_loops_agree(deployment.state, txs)
        DECODE_CACHE.clear()
        with use_registry() as registry:
            evm = EVM(deployment.state.copy())
            for tx in txs:
                assert evm.execute_transaction(tx).success
        counters = registry.counters_flat()
        assert counters["evm.fast_path_txs"] == len(txs)
        # Each block is compiled once, on first entry, however often it runs.
        assert 0 < counters["evm.blocks_compiled"] == sum(
            len(DECODE_CACHE.get(code).blocks)
            for code in {account.code for account
                         in deployment.state._accounts.values()
                         if account.code}
        )
        # Programs are not re-decoded: one miss per distinct blob.
        assert 1 <= counters["evm.decode_cache_misses"] <= len(DECODE_CACHE) + 1
        assert counters["evm.decode_cache_hits"] >= 1


# ---------------------------------------------------------------------------
# Crafted edge cases
# ---------------------------------------------------------------------------

#: name -> assembly exercising one failure mode or block shape.
EDGE_PROGRAMS = {
    "revert_with_data": (
        "PUSH 0xdead\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nREVERT"
    ),
    "invalid_jump_fused": "PUSH 7\nJUMP",  # literal target, not a JUMPDEST
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
    # A block's entry check fails on underflow: it runs entry by entry.
    "underflow_at_block_entry": "PUSH 1\nentry:\nPUSH 2\nMUL\nADD\nSTOP",
    # The SLOAD settles; the static gas after it (over the remaining gas
    # at some limits) is deferred to the exit, past nothing observable.
    "sload_then_static_tail": (
        "PUSH 7\nSLOAD\n" + "PUSH 1\nPOP\n" * 40 + "STOP"
    ),
    # STATICCALL into self; the callee refuses a LOG / SSTORE mid-block,
    # after gas the block deferred.
    "static_log_mid_block": (
        "PUSH 0\nCALLDATALOAD\nPUSH @log\nJUMPI\n"
        "PUSH 0\nPUSH 0\nPUSH 32\nPUSH 0\nPUSH 1\nPUSH 0\nMSTORE\n"
        "ADDRESS\nGAS\nSTATICCALL\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\n"
        "RETURN\nlog:\nPUSH 3\nPUSH 4\nADD\nPOP\nPUSH 0\nPUSH 0\nLOG0\n"
        "PUSH 5\nPOP\nSTOP"
    ),
    "static_sstore_mid_block": (
        "PUSH 0\nCALLDATALOAD\nPUSH @store\nJUMPI\n"
        "PUSH 0\nPUSH 0\nPUSH 32\nPUSH 0\nPUSH 1\nPUSH 0\nMSTORE\n"
        "ADDRESS\nGAS\nSTATICCALL\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\n"
        "RETURN\nstore:\nPUSH 3\nPUSH 4\nADD\nPOP\nPUSH 1\nPUSH 0\n"
        "SSTORE\nPUSH 5\nPOP\nSTOP"
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
        assert_loops_agree(state, txs)

    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_every_gas_limit_to_success(self, name):
        """Sweep the gas limit from intrinsic cost to success.

        Each limit moves the OutOfGas point one instruction earlier —
        if a block charged gas in the wrong order relative to its checks
        or its state reads, some limit in this sweep would produce a
        different error class, gas_used or access set.
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
            assert_loops_agree(state, txs)


#: tail -> how many words above its entry depth it reaches.
BOUNDARY_TAILS = {
    "PUSH 2\nSTOP": 1,
    "DUP1\nSTOP": 1,
    "PUSH 2\nADD\nSTOP": 1,  # a push, then a pop, at the boundary
    "DUP1\nMUL\nSTOP": 1,
    "PUSH 0\nCALLDATALOAD\nSTOP": 1,
    "PUSH 2\nDUP1\nMUL\nADD\nSTOP": 2,
}


class TestStackDepthBoundary:
    def _deep_code(self, fill: int, tail: str) -> bytes:
        return assemble("\n".join(["PUSH 1"] * fill) + "\n" + tail)

    def _run(self, code: bytes) -> list:
        state = _fresh_state(code)
        txs = [Transaction(sender=ALICE, to=CONTRACT, data=b"\x00" * 32,
                           gas_limit=5_000_000)]
        return assert_loops_agree(state, txs)

    @pytest.mark.parametrize("tail", BOUNDARY_TAILS)
    @pytest.mark.parametrize("fill", [1022, 1023, 1024])
    def test_overflow_at_1024(self, fill, tail):
        self._run(self._deep_code(fill, tail))

    @pytest.mark.parametrize("tail", BOUNDARY_TAILS)
    @pytest.mark.parametrize("fill", [1022, 1023, 1024])
    def test_block_entered_at_depth(self, fill, tail):
        """The tail is its own block (it starts at a JUMPDEST), entered
        at depth *fill*: where the words it pushes would not fit, its
        entry check fails and it runs entry by entry, overflowing where
        the observed loop does."""
        (receipt,) = self._run(self._deep_code(fill, "entry:\n" + tail))
        fits = fill + BOUNDARY_TAILS[tail] <= 1024
        assert receipt.error == ("" if fits else "StackOverflow")


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
            assert_loops_agree(world, txs)
            # Destroy between rounds on the shared base.
            state.delete_account(address)


# ---------------------------------------------------------------------------
# Every entry point of an erc20 stream, at every gas limit to success
# ---------------------------------------------------------------------------


def _captured(state, tx, tracer):
    """*tx*'s artifact on *state*, which is left as it was."""
    token = state.snapshot()
    artifact = execute_captured(state, tx, BlockContext(), tracer=tracer)
    state.revert(token)
    return artifact


class TestEntryPointSweep:
    def test_every_entry_point_at_every_gas_limit(self, deployment, request):
        """Each ``(contract, selector)`` of a 400-call ``erc20`` stream,
        on the state the stream reaches it in, swept from its intrinsic
        cost to the limit it succeeds at: both loops leave the same
        receipt, access sets, read values and journal. A deferred static
        charge that moved an OutOfGas across an SLOAD would leave the
        slot out of one loop's reads — a different DAG."""
        stride = request.config.getoption("--gas-stride")
        state = deployment.state.copy()
        seen = set()
        swept = 0
        for tx in make_transactions(deployment, 400, workload="erc20",
                                    seed=7):
            if (tx.to, tx.data[:4]) not in seen:
                seen.add((tx.to, tx.data[:4]))
                ample = _captured(state, tx, None).receipt
                floor = EVM(state).schedule.intrinsic_gas(tx.data)
                for gas_limit in range(floor, ample.gas_used + 2, stride):
                    probe = dataclasses.replace(tx, gas_limit=gas_limit)
                    assert_same_artifact(
                        _captured(state, probe, None),
                        _captured(state, probe, Tracer()),
                    )
                    swept += 1
            EVM(state).execute_transaction(tx)
            state.clear_journal()
        assert len(seen) == 27
        assert swept >= sum(1 for _ in seen)


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
