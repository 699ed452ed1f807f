"""The decoded-program cache: fusion shapes, LRU bounds, coherence.

Unit coverage of :mod:`repro.evm.decoded` (the equivalence suite in
``test_decoded_equivalence.py`` covers bit-identity): the folding pass
produces the expected superinstruction entries, the program and
jumpdest caches are content-keyed LRUs, redeploying different code at a
reused address never serves a stale program, and the ``evm.*`` counters
publish.
"""

from __future__ import annotations

import pytest

from repro.chain import Transaction, WorldState
from repro.contracts.asm import assemble
from repro.evm import EVM, Tracer, opcodes
from repro.evm.code import (
    clear_jumpdest_cache,
    jumpdest_cache_stats,
    set_jumpdest_cache_limit,
    valid_jumpdests,
)
from repro.evm.decoded import (
    DECODE_CACHE,
    DecodeCache,
    _h_const,
    _h_dup_bin,
    _h_push_bin,
    _h_push_jump,
    _h_push_jumpi,
    _h_swap1_pop,
    build_program,
)
from repro.evm.opcodes import OPCODES
from repro.obs import use_registry

ALICE = 0xA11CE
CONTRACT = 0xC0DE


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
    def _entry(self, source, pc=0):
        program = build_program(assemble(source))
        return program, program.entries[pc]

    def test_push_jump_fuses(self):
        program, entry = self._entry("PUSH @target\nJUMP\ntarget:\nSTOP")
        assert entry[0] is _h_push_jump
        assert entry[2] is True  # statically validated target
        assert program.fused_count == 1

    def test_push_jump_to_invalid_target_still_fuses(self):
        _, entry = self._entry("PUSH 0\nJUMP")
        assert entry[0] is _h_push_jump
        assert entry[2] is False  # raises InvalidJump at run time

    def test_push_jumpi_fuses(self):
        _, entry = self._entry("PUSH @target\nJUMPI\ntarget:\nSTOP")
        assert entry[0] is _h_push_jumpi

    def test_push_binop_fuses(self):
        # The PUSH's operand partner comes from outside (CALLDATALOAD),
        # so this is pair fusion, not a constant chain.
        program = build_program(
            assemble("PUSH 0\nCALLDATALOAD\nPUSH 7\nADD\nSTOP")
        )
        entry = program.entries[3]
        assert entry[0] is _h_push_bin
        assert entry[2] == 7

    def test_dup_binop_fuses(self):
        program = build_program(
            assemble("PUSH 0\nCALLDATALOAD\nDUP1\nMUL\nSTOP")
        )
        assert program.entries[3][0] is _h_dup_bin

    def test_swap1_pop_fuses(self):
        program = build_program(
            assemble("PUSH 0\nCALLDATALOAD\nPUSH 1\nSWAP1\nPOP\nSTOP")
        )
        assert program.entries[5][0] is _h_swap1_pop

    def test_constant_chain_folds_to_values(self):
        program = build_program(assemble("PUSH 2\nPUSH 3\nADD\nSTOP"))
        entry = program.entries[0]
        assert entry[0] is _h_const
        assert entry[3] == (5,)  # folded at decode time
        assert program.folded_instructions == 2

    def test_interior_pcs_have_no_entries(self):
        program = build_program(assemble("PUSH 2\nPUSH 3\nADD\nSTOP"))
        # pcs 2 and 4 are the interior PUSH/ADD of the fused chain; pcs
        # 1 and 3 are immediates. None are reachable.
        assert program.entries[2] is None
        assert program.entries[4] is None

    def test_jumpdest_never_fused_interior(self):
        source = "PUSH 2\ntarget:\nPUSH 3\nADD\nPUSH @target\nJUMP"
        program = build_program(assemble(source))
        code = assemble(source)
        for pc in valid_jumpdests(code):
            assert program.entries[pc] is not None

    def test_deep_limit_folds_longer_chains(self):
        lines = [f"PUSH {i}\nADD" for i in range(1, 20)]
        source = "PUSH 0\n" + "\n".join(lines) + "\nSTOP"
        program = build_program(assemble(source))
        # One limit: the 39-instruction chain is one entry.
        assert program.fused_count == 1
        assert program.folded_instructions == 38
        assert program.entries[0][3] == (sum(range(20)),)


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


class TestJumpdestMemo:
    def test_hits_and_misses_counted(self):
        clear_jumpdest_cache()
        code = assemble("lab:\nPUSH @lab\nJUMP")
        valid_jumpdests(code)
        valid_jumpdests(code)
        stats = jumpdest_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1

    def test_limit_bounds_and_evicts(self):
        clear_jumpdest_cache()
        set_jumpdest_cache_limit(2)
        try:
            for i in range(4):
                valid_jumpdests(assemble(f"PUSH {i}\nSTOP"))
            assert jumpdest_cache_stats()["size"] == 2
        finally:
            set_jumpdest_cache_limit(4096)
            clear_jumpdest_cache()

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            set_jumpdest_cache_limit(0)


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
        assert DECODE_CACHE.get(code).fused_count == 12  # PUSH+MUL/ADD pairs
        unfused = _run_tx(state, tracer=Tracer(), data=data)
        fused = _run_tx(state, data=data)
        assert fused.output == unfused.output
        assert fused.gas_used == unfused.gas_used


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
        assert flat["evm.fused_instructions"] >= 1

    def test_traced_path_never_counts_fast_txs(self):
        state = _fresh_state()
        state.set_code(CONTRACT, assemble("STOP"))
        with use_registry() as registry:
            evm = EVM(state, tracer=Tracer())
            evm.execute_transaction(
                Transaction(sender=ALICE, to=CONTRACT, gas_limit=100_000)
            )
        assert registry.counters_flat().get("evm.fast_path_txs", 0) == 0
