"""Arbitrary bytecode through both loops, and the edges of a block.

The deployed contracts exercise the block compiler on the code one
compiler writes. Here hypothesis writes it: mostly defined opcodes, PUSHes
whose immediates hold JUMPDEST bytes or run past the end of code, small
words that make jumps land on a JUMPDEST or miss it, and undefined bytes,
at gas limits that are sometimes too small. Whatever the code does, the
block-compiled trace-free loop and the observed loop must leave the same
receipt (error class and gas included), artifacts and post-state digest
(``assert_loops_agree``). The named cases pin the block edges the sweeps
of ``test_decoded_equivalence.py`` do not name: a state read before gas
the block cannot pay, a schedule other than the default, and a redeploy.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction, WorldState
from repro.chain.journal import execute_captured
from repro.contracts.asm import assemble
from repro.evm import EVM, GasSchedule, Tracer, opcodes
from repro.evm.context import BlockContext
from repro.evm.decoded import DECODE_CACHE
from repro.storage.codec import state_digest_bytes
from tests.conftest import assert_loops_agree

ALICE = 0xA11CE
CONTRACT = 0xC0DE

_UNDEFINED = [byte for byte in range(256) if opcodes.INFO_BY_BYTE[byte] is None]
#: Defined opcodes but the PUSHes (the strategy writes those itself), the
#: jumps and the ones that end the frame.
_OPS = sorted(
    info.value for info in opcodes.OPCODES.values()
    if not (0x60 <= info.value <= 0x7F or info.is_terminator
            or info.value in (0x56, 0x57, 0x5B))
)
_ENDS = sorted(v for v, info in opcodes.OPCODES.items() if info.is_terminator)
_IMMEDIATE_BYTE = st.one_of(st.just(0x5B), st.integers(0, 255))


@st.composite
def bytecode(draw) -> bytes:
    """Code that mostly has the operands it pops (so runs go past their
    first instruction), with loops back to earlier JUMPDESTs."""
    code = bytearray()
    height = 0  # the stack depth the straight-line reading implies
    jumpdests: list[int] = []

    def word(value):
        nonlocal height
        code.extend((0x60, value))
        height += 1

    for _ in range(draw(st.integers(1, 64))):
        kind = draw(st.sampled_from(
            ("op",) * 8 + ("push", "word", "jumpdest", "jump", "end",
                           "undefined")
        ))
        if kind == "op":
            info = opcodes.OPCODES[draw(st.sampled_from(_OPS))]
            if draw(st.integers(0, 9)) < 9:  # mostly: feed it its operands
                while height < info.pops:
                    word(draw(st.integers(0, 80)))
            code.append(info.value)
            height = max(height - info.pops, 0) + info.pushes
        elif kind == "push":  # its immediate may hold a JUMPDEST byte
            size = draw(st.integers(1, 32))
            code.append(0x5F + size)
            code += bytes(draw(st.lists(
                _IMMEDIATE_BYTE, min_size=size, max_size=size
            )))
            height += 1
        elif kind == "word":  # a pc, an offset or a length
            word(draw(st.integers(0, 80)))
        elif kind == "jumpdest":
            jumpdests.append(len(code))
            code.append(0x5B)
        elif kind == "jump":  # back to a JUMPDEST, or anywhere
            if draw(st.booleans()):
                word(draw(st.integers(0, 1)))  # JUMPI's condition
                opcode = 0x57
            else:
                opcode = 0x56
            if jumpdests and draw(st.integers(0, 3)) < 3:
                target = draw(st.sampled_from(jumpdests))
            else:
                target = draw(st.integers(0, 255))
            word(target)
            code.append(opcode)
            height -= 1 + (opcode == 0x57)
        elif kind == "end":
            code.append(draw(st.sampled_from(_ENDS)))
        else:
            code.append(draw(st.sampled_from(_UNDEFINED)))
    if draw(st.booleans()):  # a PUSH that runs past the end of code
        size = draw(st.integers(2, 32))
        code.append(0x5F + size)
        code += bytes(draw(st.lists(_IMMEDIATE_BYTE, max_size=size - 1)))
    return bytes(code)


def _world(code: bytes) -> WorldState:
    state = WorldState()
    state.set_balance(ALICE, 10**24)
    state.set_code(CONTRACT, code)
    state.clear_journal()
    return state


@settings(deadline=None)
@given(
    code=bytecode(),
    data=st.binary(max_size=68),
    gas_limit=st.integers(min_value=23_000, max_value=300_000),
)
def test_arbitrary_code_runs_alike_in_both_loops(code, data, gas_limit):
    tx = Transaction(sender=ALICE, to=CONTRACT, data=data,
                     gas_limit=gas_limit)
    # The second call runs the blocks the first one compiled.
    assert_loops_agree(_world(code), [tx, dataclasses.replace(tx, nonce=1)])


class TestBlockEdges:
    def test_a_read_is_made_exactly_when_its_gas_is_paid(self):
        """The SLOAD settles its group, then reads; the forty PUSH/POP
        pairs after it cost more than is left, and their charge waits
        for the block's exit. Given gas for the SLOAD the slot is read
        (nothing was charged early); one unit short it is not (nothing
        was charged late)."""
        code = assemble("PUSH 7\nSLOAD\n" + "PUSH 1\nPOP\n" * 40 + "STOP")
        for spare, read in ((100, True), (-1, False)):
            tx = Transaction(sender=ALICE, to=CONTRACT,
                             gas_limit=21_000 + 3 + 200 + spare)
            for tracer in (None, Tracer()):
                artifact = execute_captured(
                    _world(code), tx, BlockContext(), tracer=tracer
                )
                assert artifact.receipt.error == "OutOfGas"
                assert ((CONTRACT, 7) in artifact.access.reads) == read
            assert_loops_agree(_world(code), [tx])

    def test_a_non_default_schedule_is_read_at_run_time(self):
        """Static gas is the ISA's; memory and hashing gas come from the
        running EVM's schedule, so blocks compiled under the default
        schedule charge a custom one's rates."""
        code = assemble(
            "PUSH 0\nCALLDATALOAD\nPUSH 320\nMSTORE\nPUSH 352\nPUSH 0\n"
            "SHA3\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
        )
        tx = Transaction(sender=ALICE, to=CONTRACT, data=bytes(32),
                         gas_limit=1_000_000)
        default, custom = GasSchedule(), GasSchedule(memory_word=7,
                                                     sha3_word=11)
        runs = {}
        for schedule in (default, custom):
            for tracer in (None, Tracer()):
                world = _world(code)
                receipt = EVM(
                    world, schedule=schedule, tracer=tracer
                ).execute_transaction(tx)
                runs[schedule, tracer is None] = (
                    receipt, state_digest_bytes(world)
                )
        assert len(DECODE_CACHE.get(code).blocks) == 1
        assert runs[default, True] == runs[default, False]
        assert runs[custom, True] == runs[custom, False]
        assert runs[custom, True][0].gas_used > runs[default, True][0].gas_used

    def test_a_redeploy_runs_the_new_codes_blocks(self):
        """Blocks belong to code, not to an address: after the account
        is deleted and other code is set there, the trace-free loop runs
        blocks compiled from the new bytes."""
        old = assemble("PUSH 1\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        new = assemble("PUSH 2\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN")
        state = _world(old)
        call = Transaction(sender=ALICE, to=CONTRACT, gas_limit=100_000)
        assert EVM(state).execute_transaction(call).output[-1] == 1
        state.delete_account(CONTRACT)
        state.set_code(CONTRACT, new)
        state.clear_journal()
        (receipt,) = assert_loops_agree(state, [call])
        assert receipt.output[-1] == 2
        assert list(DECODE_CACHE.get(new).blocks) == [0]
