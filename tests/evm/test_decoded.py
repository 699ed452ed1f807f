"""The decoded program and its compiled blocks: block shapes, LRU bounds,
coherence.

Unit coverage of :mod:`repro.evm.decoded` (the equivalence suite in
``test_decoded_equivalence.py`` covers bit-identity): straight-line code
runs as one compiled block per entry point, blocks compile only when the
trace-free loop enters them and leave with their program, the program
cache is a content-keyed LRU, redeploying different code at a reused
address never serves a stale program, and the ``evm.*`` counters
publish.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.chain import Transaction, WorldState
from repro.contracts.asm import assemble
from repro.evm import EVM, Tracer, opcodes
from repro.evm.decoded import DECODE_CACHE, DecodeCache
from repro.evm.opcodes import OPCODES
from repro.obs import use_registry

ALICE = 0xA11CE
CONTRACT = 0xC0DE
RETURN_TOP = "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"


def _fresh_state():
    state = WorldState()
    state.set_balance(ALICE, 10**21)
    state.clear_journal()
    return state


def _run_tx(state, address=CONTRACT, tracer=None, data=b""):
    evm = EVM(state, tracer=tracer)
    tx = Transaction(sender=ALICE, to=address, data=data,
                     gas_limit=5_000_000)
    return evm.execute_transaction(tx)


def _run_source(source, data=b""):
    """Run *source* trace-free; return (receipt, its program)."""
    code = assemble(source)
    state = _fresh_state()
    state.set_code(CONTRACT, code)
    receipt = _run_tx(state, data=data)
    return receipt, DECODE_CACHE.get(code)


def _word(value: int) -> bytes:
    return value.to_bytes(32, "big")


class TestDispatchTable:
    def test_info_by_byte_matches_opcode_table(self):
        for value in range(256):
            assert opcodes.INFO_BY_BYTE[value] is OPCODES.get(value)

    def test_info_function_unchanged(self):
        assert opcodes.info(0x01).name == "ADD"
        assert opcodes.info(0x0C) is None
        assert opcodes.info(-1) is None
        assert opcodes.info(999) is None


class TestFolding:
    """A basic block is the line the fill unit folds: every pattern the
    retired superinstruction pass fused (PUSH+JUMP[I], PUSH+binop,
    DUP+binop, SWAP1+POP) runs inside one compiled block, entered only
    where control lands."""

    def test_push_jump_fuses(self):
        source = "PUSH @target\nJUMP\ntarget:\nSTOP"
        receipt, program = _run_source(source)
        assert receipt.success
        (target,) = program.jumpdests
        assert sorted(program.blocks) == [0, target]

    def test_push_jump_to_invalid_target_still_fuses(self):
        receipt, program = _run_source("PUSH 0\nJUMP")
        assert receipt.error == "InvalidJump"
        assert sorted(program.blocks) == [0]

    def test_push_jumpi_fuses(self):
        source = "PUSH 1\nPUSH @target\nJUMPI\nSTOP\ntarget:\nSTOP"
        receipt, program = _run_source(source)
        assert receipt.success
        target = max(program.jumpdests)
        assert sorted(program.blocks) == [0, target]

    def test_push_binop_fuses(self):
        # The PUSH's partner comes from outside (CALLDATALOAD).
        receipt, program = _run_source(
            f"PUSH 0\nCALLDATALOAD\nPUSH 7\nADD\n{RETURN_TOP}", _word(35)
        )
        assert receipt.output == _word(42)
        assert sorted(program.blocks) == [0]

    def test_dup_binop_fuses(self):
        receipt, program = _run_source(
            f"PUSH 0\nCALLDATALOAD\nDUP1\nMUL\n{RETURN_TOP}", _word(9)
        )
        assert receipt.output == _word(81)
        assert sorted(program.blocks) == [0]

    def test_swap1_pop_fuses(self):
        receipt, program = _run_source(
            f"PUSH 0\nCALLDATALOAD\nPUSH 1\nSWAP1\nPOP\n{RETURN_TOP}",
            _word(5),
        )
        assert receipt.output == _word(1)
        assert sorted(program.blocks) == [0]

    def test_interior_pcs_have_no_entries(self):
        code = assemble("PUSH 2\nPUSH 3\nADD\nSTOP")
        program = DECODE_CACHE.get(code)
        instruction_pcs = {ins.pc for ins in program.instructions}
        for pc, entry in enumerate(program.entries):
            # An entry per instruction; none inside an immediate.
            assert (entry is not None) == (pc in instruction_pcs)
        _run_source("PUSH 2\nPUSH 3\nADD\nSTOP")
        assert sorted(program.blocks) == [0]  # no block inside a block

    def test_jumpdest_never_fused_interior(self):
        # Block 0 falls into the loop head: it ends before the JUMPDEST,
        # which starts its own block (the loop runs out of gas).
        source = "PUSH 2\ntarget:\nPUSH 3\nADD\nPUSH @target\nJUMP"
        receipt, program = _run_source(source)
        assert receipt.error == "OutOfGas"
        assert sorted(program.blocks) == [0, *program.jumpdests]


class TestBlocks:
    def test_a_program_never_run_compiles_no_block(self):
        code = assemble("PUSH 1\nPUSH 2\nADD\nSTOP")
        DECODE_CACHE.warm(code)
        program = DECODE_CACHE.get(code)
        assert program.blocks == {} and program.namespace is None
        state = _fresh_state()
        state.set_code(CONTRACT, code)
        _run_tx(state.copy(), tracer=Tracer())  # the observed loop
        assert program.blocks == {}
        _run_tx(state)
        assert sorted(program.blocks) == [0]

    def test_an_evicted_program_takes_its_blocks(self):
        receipt, program = _run_source("PUSH 5\nPUSH 6\nMUL\nSTOP")
        assert receipt.success
        block = weakref.ref(program.blocks[0])
        code = program.code
        del program
        limit = DECODE_CACHE.max_programs
        DECODE_CACHE.max_programs = 1
        try:
            DECODE_CACHE.get(assemble("PUSH 7\nSTOP"))  # evicts the rest
        finally:
            DECODE_CACHE.max_programs = limit
        gc.collect()
        assert block() is None
        assert DECODE_CACHE.get(code).blocks == {}  # decoded afresh


class TestDecodeCacheLRU:
    def test_content_keyed_hit(self):
        cache = DecodeCache(max_programs=4)
        code = assemble("PUSH 1\nSTOP")
        first = cache.get(code)
        assert cache.get(bytes(code)) is first  # content, not identity
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_evicts_oldest(self):
        cache = DecodeCache(max_programs=2)
        codes = [assemble(f"PUSH {i}\nSTOP") for i in range(3)]
        for code in codes:
            cache.get(code)
        assert len(cache) == 2
        cache.get(codes[0])  # evicted: decodes again
        assert cache.stats()["misses"] == 4

    def test_get_refreshes_recency(self):
        cache = DecodeCache(max_programs=2)
        a, b, c = (assemble(f"PUSH {i}\nSTOP") for i in range(3))
        cache.get(a)
        cache.get(b)
        cache.get(a)  # a is now most-recent; b should evict next
        cache.get(c)
        assert cache.get(a) and cache.stats()["misses"] == 3

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            DecodeCache(max_programs=0)


class TestCacheCoherence:
    def test_redeploy_at_same_address_uses_new_code(self):
        """SELFDESTRUCT + redeploy regression: programs are keyed by code
        content, so a new blob at a reused address can never alias."""
        state = _fresh_state()
        code_v1 = assemble("PUSH 1\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        code_v2 = assemble("PUSH 2\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        state.set_code(CONTRACT, code_v1)
        assert _run_tx(state).output == (1).to_bytes(32, "big")
        # Simulate destroy + redeploy of different code at the address.
        state.delete_account(CONTRACT)
        state.set_balance(ALICE, 10**21)
        state.set_code(CONTRACT, code_v2)
        assert _run_tx(state).output == (2).to_bytes(32, "big")
        assert sorted(DECODE_CACHE.get(code_v2).blocks) == [0]
        # And back: the v1 program is a (correct) cache hit, not stale.
        state.set_code(CONTRACT, code_v1)
        assert _run_tx(state).output == (1).to_bytes(32, "big")

    def test_specialized_program_is_equivalent(self):
        state = _fresh_state()
        source = (
            "PUSH 0\nCALLDATALOAD\n"
            + "PUSH 3\nMUL\nPUSH 5\nADD\n" * 6
            + "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
        )
        code = assemble(source)
        state.set_code(CONTRACT, code)
        data = (41).to_bytes(32, "big")
        observed = _run_tx(state, tracer=Tracer(), data=data)
        compiled = _run_tx(state, data=data)
        assert sorted(DECODE_CACHE.get(code).blocks) == [0]  # one block
        assert compiled.output == observed.output
        assert compiled.gas_used == observed.gas_used


class TestMetrics:
    def test_counters_publish(self):
        state = _fresh_state()
        code = assemble("PUSH 2\nPUSH 3\nADD\nPUSH 0\nMSTORE\n"
                        "PUSH 32\nPUSH 0\nRETURN")
        state.set_code(CONTRACT, code)
        DECODE_CACHE.clear()
        with use_registry() as registry:
            _run_tx(state)
            _run_tx(state)
        flat = registry.counters_flat()
        assert flat["evm.decode_cache_misses"] == 1
        assert flat["evm.decode_cache_hits"] == 1
        assert flat["evm.fast_path_txs"] == 2
        assert flat["evm.blocks_compiled"] == 1  # once, not per run

    def test_traced_path_never_counts_fast_txs(self):
        state = _fresh_state()
        state.set_code(CONTRACT, assemble("STOP"))
        with use_registry() as registry:
            evm = EVM(state, tracer=Tracer())
            evm.execute_transaction(
                Transaction(sender=ALICE, to=CONTRACT, gas_limit=100_000)
            )
        assert registry.counters_flat().get("evm.fast_path_txs", 0) == 0
