"""Static bytecode decoding and jump-destination analysis."""

from hypothesis import given
from hypothesis import strategies as st

from repro.contracts.asm import assemble
from repro.contracts.registry import compile_suite
from repro.evm import opcodes
from repro.evm.code import decode
from repro.evm.decoded import build_program


def jumpdests(code: bytes) -> frozenset[int]:
    return build_program(code).jumpdests


def scanned_jumpdests(code: bytes) -> frozenset[int]:
    """Byte scan for JUMPDEST (0x5B) opcodes, stepping over PUSH
    immediates: the reference the decode pass's set is held to."""
    found = set()
    pc = 0
    while pc < len(code):
        if code[pc] == 0x5B:
            found.add(pc)
        info = opcodes.INFO_BY_BYTE[code[pc]]
        pc += 1 + (info.immediate_size if info is not None else 0)
    return frozenset(found)


class TestDecode:
    def test_simple_program(self):
        code = assemble("PUSH 1\nPUSH 2\nADD\nSTOP")
        names = [i.op.name for i in decode(code)]
        assert names == ["PUSH1", "PUSH1", "ADD", "STOP"]

    def test_push_immediate_value(self):
        code = assemble("PUSH4 0xcc80f6f3")
        instr = decode(code)[0]
        assert instr.op.name == "PUSH4"
        assert instr.immediate == 0xCC80F6F3
        assert instr.size == 5

    def test_truncated_push_zero_pads(self):
        code = bytes([0x62, 0xAA])  # PUSH3 with only 1 immediate byte
        instr = decode(code)[0]
        assert instr.immediate == 0xAA0000

    def test_undefined_byte_decodes_invalid(self):
        instrs = decode(bytes([0x0C]))
        assert instrs[0].op.name == "INVALID"

    def test_pcs_are_byte_offsets(self):
        code = assemble("PUSH2 0x1234\nADD")
        instrs = decode(code)
        assert instrs[0].pc == 0
        assert instrs[1].pc == 3
        assert instrs[0].next_pc == 3

    @given(st.binary(max_size=200))
    def test_decode_covers_every_byte_once(self, code):
        instrs = decode(bytes(code))
        pos = 0
        for instr in instrs:
            assert instr.pc == pos
            pos += instr.size
        assert pos >= len(code)


class TestJumpdests:
    def test_jumpdest_found(self):
        code = assemble("STOP\nlab:\nSTOP")
        assert jumpdests(code) == frozenset({1})

    def test_jumpdest_inside_push_is_invalid(self):
        # PUSH2 0x5b5b embeds the JUMPDEST byte in an immediate.
        code = bytes([0x61, 0x5B, 0x5B, 0x00])
        assert jumpdests(code) == frozenset()

    def test_empty_code_has_no_jumpdests(self):
        assert jumpdests(b"") == frozenset()

    def test_every_label_is_a_jumpdest(self):
        source = "a:\nPUSH @b\nJUMP\nb:\nSTOP"
        code = assemble(source)
        dests = jumpdests(code)
        assert 0 in dests  # label a
        assert len(dests) == 2

    @given(st.binary(max_size=120))
    def test_dests_are_actual_jumpdest_bytes(self, code):
        code = bytes(code)
        dests = jumpdests(code)
        assert dests == scanned_jumpdests(code)
        for dest in dests:
            assert code[dest] == 0x5B

    def test_suite_contracts_match_the_byte_scan(self):
        for artifact in compile_suite().values():
            code = artifact.bytecode
            assert jumpdests(code) == scanned_jumpdests(code)
            assert jumpdests(code)
