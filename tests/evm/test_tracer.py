"""Dataflow tracing: producer links, call records, histograms — and the
recording rule (which instructions leave a step, in what order, with what
``extra``) that the MTPU timing model and the hotspot passes rely on."""

import pytest

from repro.chain import Transaction
from repro.contracts.asm import assemble
from repro.crypto import ADDRESS_MASK
from repro.evm import EVM, Tracer
from repro.evm.tracer import EXTERNAL_PRODUCER
from tests.conftest import ALICE, BOB, CONTRACT, run_code

CALLEE = 0x77777


def call_source(kind="CALL", value=None, gas="GAS"):
    """Caller code: one zero-argument *kind* message call into CALLEE."""
    value_push = "" if value is None else f"PUSH {value}\n"
    return (
        "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\n" + value_push
        + f"PUSH {CALLEE:#x}\n{gas}\n{kind}\n"
    )


def trace_of(state, source, **kwargs):
    _, tracer = run_code(state, source, **kwargs)
    return tracer


class TestProducerLinks:
    def test_push_has_no_operands(self, state):
        tracer = trace_of(state, "PUSH 5\nSTOP")
        step = tracer.steps[0]
        assert step.op.name == "PUSH1"
        assert step.operands == ()
        assert step.results == (5,)
        assert step.immediate == 5

    def test_add_links_to_both_pushes(self, state):
        tracer = trace_of(state, "PUSH 3\nPUSH 4\nADD\nSTOP")
        add = tracer.steps[2]
        assert add.operands == (4, 3)
        assert add.producers == (1, 0)
        assert add.results == (7,)

    def test_chain_through_intermediate(self, state):
        tracer = trace_of(state, "PUSH 1\nPUSH 2\nADD\nPUSH 3\nMUL\nSTOP")
        mul = tracer.steps[4]
        assert mul.producers == (3, 2)  # PUSH 3 and the ADD result

    def test_dup_producer_is_dup_step(self, state):
        tracer = trace_of(state, "PUSH 9\nDUP1\nADD\nSTOP")
        dup = tracer.steps[1]
        add = tracer.steps[2]
        assert dup.producers == (0,)
        # The duplicate on top was produced by the DUP itself; the
        # original below keeps the PUSH as producer.
        assert set(add.producers) == {0, 1}

    def test_swap_exchanges_producers(self, state):
        tracer = trace_of(state, "PUSH 1\nPUSH 2\nSWAP1\nPOP\nSTOP")
        pop = tracer.steps[3]
        assert pop.operands == (1,)
        assert pop.producers == (0,)  # PUSH 1 is now on top

    def test_sload_extra_records_key(self, state):
        tracer = trace_of(state, "PUSH 7\nSLOAD\nSTOP")
        sload = tracer.steps[1]
        assert sload.extra["slot"] == 7
        assert sload.extra["address"] == CONTRACT

    def test_jumpi_extra_records_taken(self, state):
        tracer = trace_of(
            state, "PUSH 0\nPUSH @lab\nJUMPI\nlab:\nSTOP"
        )
        jumpi = [s for s in tracer.steps if s.op.name == "JUMPI"][0]
        assert jumpi.extra["taken"] is False


class TestCallRecords:
    def test_top_level_record(self, state):
        tracer = trace_of(state, "STOP")
        assert len(tracer.calls) == 1
        record = tracer.calls[0]
        assert record.depth == 0
        assert record.code_address == CONTRACT
        assert record.success

    def test_nested_call_record(self, state):
        state.set_code(CALLEE, assemble("STOP"))
        src = (
            "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\n"
            f"PUSH {CALLEE:#x}\nGAS\nCALL\nSTOP"
        )
        tracer = trace_of(state, src)
        assert len(tracer.calls) == 2
        child = tracer.calls[1]
        assert child.depth == 1
        assert child.code_address == CALLEE
        assert child.success

    def test_failed_child_marked(self, state):
        state.set_code(CALLEE, assemble("PUSH 0\nPUSH 0\nREVERT"))
        src = (
            "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\n"
            f"PUSH {CALLEE:#x}\nGAS\nCALL\nSTOP"
        )
        tracer = trace_of(state, src)
        assert tracer.calls[1].success is False
        assert tracer.calls[0].success is True

    def test_depth_annotation_on_steps(self, state):
        state.set_code(CALLEE, assemble("PUSH 1\nPOP\nSTOP"))
        src = (
            "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\n"
            f"PUSH {CALLEE:#x}\nGAS\nCALL\nSTOP"
        )
        tracer = trace_of(state, src)
        child_steps = [s for s in tracer.steps if s.depth == 1]
        assert [s.op.name for s in child_steps] == ["PUSH1", "POP", "STOP"]
        assert all(s.code_address == CALLEE for s in child_steps)


class TestAggregates:
    def test_gas_total_matches_receipt_minus_intrinsic(self, state):
        receipt, tracer = run_code(state, "PUSH 1\nPUSH 2\nADD\nSTOP")
        assert tracer.gas_total() == receipt.gas_used - 21000

    def test_category_histogram(self, state):
        tracer = trace_of(state, "PUSH 1\nPUSH 2\nADD\nPOP\nSTOP")
        histogram = tracer.category_histogram()
        assert histogram["Stack"] == 3
        assert histogram["Arithmetic"] == 1
        assert histogram["Control"] == 1

    def test_external_producer_for_frame_inputs(self):
        # Directly exercise a frame that starts with a non-empty stack.
        assert EXTERNAL_PRODUCER == -1


class TestGasTotal:
    """``gas_total()`` is the gas the execution consumed, callees included.

    A call-family step's ``gas_cost`` is the meter's movement across the
    instruction: forwarded gas that did not come back is in it, a value
    stipend the callee returned is not.
    """

    @pytest.mark.parametrize("value", [0, 5])
    @pytest.mark.parametrize("callee", [
        "PUSH 1\nINVALID",           # exceptional halt: burns what it got
        "PUSH 1\nPOP\nSTOP",
        "PUSH 0\nPUSH 0\nREVERT",    # hands the rest back
    ], ids=["invalid", "stop", "revert"])
    def test_gas_total_matches_receipt_across_calls(
        self, state, callee, value
    ):
        state.set_code(CALLEE, assemble(callee))
        receipt, tracer = run_code(
            state, call_source(value=value, gas="PUSH 50000") + "STOP",
            value=value,
        )
        assert receipt.success
        assert tracer.gas_total() == receipt.gas_used - 21000


class TestRecordingRule:
    """Which instructions leave a step.

    A step is recorded when the instruction completes, halts its frame,
    or fails as REVERT, a bad jump target or an overflowing push; any
    other failure leaves none.
    """

    def test_revert_leaves_a_step(self, state):
        receipt, tracer = run_code(state, "PUSH 0\nPUSH 0\nREVERT")
        assert receipt.error == "revert"
        assert [s.op.name for s in tracer.steps] == ["PUSH1", "PUSH1", "REVERT"]
        assert tracer.steps[-1].operands == (0, 0)
        assert tracer.steps[-1].producers == (1, 0)

    @pytest.mark.parametrize("source, name, operands", [
        ("PUSH 7\nJUMP", "JUMP", (7,)),
        ("PUSH 1\nPUSH 9\nJUMPI", "JUMPI", (9, 1)),
    ], ids=["jump", "jumpi"])
    def test_jump_to_a_non_jumpdest_leaves_a_step(
        self, state, source, name, operands
    ):
        receipt, tracer = run_code(state, source)
        assert receipt.error == "InvalidJump"
        step = tracer.steps[-1]
        assert step.op.name == name
        assert step.operands == operands
        assert step.extra["taken"] is True
        assert step.extra["target"] == operands[0]

    def test_overflowing_push_leaves_a_step(self, state):
        receipt, tracer = run_code(state, "PUSH 1\n" * 1024 + "PUSH 2\nSTOP")
        assert receipt.error == "StackOverflow"
        assert len(tracer.steps) == 1025
        step = tracer.steps[-1]
        assert step.op.name == "PUSH1"
        assert step.immediate == 2
        assert step.results == (2,)
        assert step.gas_cost == 3

    def test_overflowing_dup_leaves_a_step(self, state):
        receipt, tracer = run_code(state, "PUSH 1\n" * 1024 + "DUP1\nSTOP")
        assert receipt.error == "StackOverflow"
        assert len(tracer.steps) == 1025
        step = tracer.steps[-1]
        assert step.op.name == "DUP1"
        assert step.operands == (1,)
        assert step.producers == (1023,)
        assert step.results == (1,)

    def test_overflowing_environment_push_leaves_a_step(self, state):
        receipt, tracer = run_code(
            state, "PUSH 1\n" * 1024 + "CALLER\nSTOP", sender=BOB
        )
        assert receipt.error == "StackOverflow"
        step = tracer.steps[-1]
        assert step.op.name == "CALLER"
        assert step.results == (BOB,)

    @pytest.mark.parametrize("source, error, names", [
        ("PUSH 1\nADD\nSTOP", "StackUnderflow", ["PUSH1"]),
        ("PUSH 1\nINVALID", "InvalidOpcode", ["PUSH1"]),
        ("PUSH 32\nPUSH 0\nPUSH 0\nRETURNDATACOPY\nSTOP", "ExceptionalHalt",
         ["PUSH1", "PUSH1", "PUSH1"]),
    ], ids=["underflow", "invalid_opcode", "returndatacopy_oob"])
    def test_other_failures_leave_no_step(self, state, source, error, names):
        receipt, tracer = run_code(state, source)
        assert receipt.error == error
        assert [s.op.name for s in tracer.steps] == names

    def test_out_of_gas_leaves_no_step(self, state):
        receipt, tracer = run_code(
            state, "PUSH 1\nPUSH 0\nSSTORE\nSTOP", gas_limit=21_000 + 100
        )
        assert receipt.error == "OutOfGas"
        assert [s.op.name for s in tracer.steps] == ["PUSH1", "PUSH1"]

    def test_undefined_byte_leaves_no_step(self, state):
        state.set_code(CONTRACT, assemble("PUSH 1") + b"\x0c")
        tracer = Tracer()
        receipt = EVM(state, tracer=tracer).execute_transaction(
            Transaction(sender=ALICE, to=CONTRACT, gas_limit=100_000)
        )
        assert receipt.error == "InvalidOpcode"
        assert [s.op.name for s in tracer.steps] == ["PUSH1"]

    @pytest.mark.parametrize("callee, refused", [
        ("PUSH 1\nPUSH 0\nSSTORE\nSTOP", "SSTORE"),
        ("PUSH 0\nPUSH 0\nLOG0\nSTOP", "LOG0"),
        ("PUSH 0\nPUSH 0\nPUSH 0\nCREATE\nSTOP", "CREATE"),
    ], ids=["sstore", "log", "create"])
    def test_write_under_staticcall_leaves_no_step(
        self, state, callee, refused
    ):
        state.set_code(CALLEE, assemble(callee))
        receipt, tracer = run_code(
            state, call_source("STATICCALL") + "STOP"
        )
        assert receipt.success
        assert tracer.calls[1].success is False
        child = [s.op.name for s in tracer.steps if s.depth == 1]
        assert refused not in child
        assert child == ["PUSH1"] * len(child) != []

    def test_call_step_precedes_its_callee(self, state):
        state.set_code(CALLEE, assemble("PUSH 1\nPOP\nSTOP"))
        _, tracer = run_code(state, call_source(value=0) + "POP\nSTOP")
        call = next(s for s in tracer.steps if s.op.name == "CALL")
        callee_steps = [s for s in tracer.steps if s.depth == 1]
        assert len(callee_steps) == 3
        assert all(call.index < s.index for s in callee_steps)
        assert call.results == ()
        assert len(call.operands) == len(call.producers) == 7
        # The success word the CALL pushed is the CALL step's product.
        pop = tracer.steps[-2]
        assert pop.op.name == "POP" and pop.depth == 0
        assert pop.operands == (1,)
        assert pop.producers == (call.index,)
        assert [s.index for s in tracer.steps] == list(range(len(tracer)))

    def test_refused_call_leaves_no_step(self, state):
        # Too few operands: the CALL never starts.
        receipt, tracer = run_code(state, "PUSH 0\nCALL\nSTOP")
        assert receipt.error == "StackUnderflow"
        assert [s.op.name for s in tracer.steps] == ["PUSH1"]


#: The ``extra`` keys anything reads (``core/mtpu/pu.py``,
#: ``core/hotspot/chunking.py``), per opcode, for the program below.
DIRTY_BOB = (0xFF << 200) | BOB  # high bits an address operand may carry
LABEL = object()  # stands for the pc of the label the branch names
EXTRA_PROGRAM = (
    "PUSH 5\nPUSH 7\nSSTORE\n"
    "PUSH 7\nSLOAD\nPOP\n"
    f"PUSH {DIRTY_BOB:#x}\nBALANCE\nPOP\n"
    "PUSH 33\nPUSH 0\nSHA3\nPOP\n"
    "PUSH @on\nJUMP\non:\n"
    "PUSH 0\nPUSH @off\nJUMPI\noff:\n"
    + call_source(value=0) + "STOP"
)
EXPECTED_EXTRA = {
    "SSTORE": {"address": CONTRACT, "slot": 7},
    "SLOAD": {"address": CONTRACT, "slot": 7},
    "BALANCE": {"address": DIRTY_BOB & ADDRESS_MASK},
    "SHA3": {"length": 33},
    "JUMP": {"target": LABEL, "taken": True},
    "JUMPI": {"target": LABEL, "taken": False},
    "CALL": {"target": CALLEE},
}


class TestExtra:
    def _steps_and_expected(self, state):
        state.set_code(CALLEE, assemble("STOP"))
        _, tracer = run_code(state, EXTRA_PROGRAM)
        # Both labels are reached (jumped to / fallen into) right after
        # the branch naming them: the next step's pc is the label's.
        expected = {
            step.index: {
                key: tracer.steps[step.index + 1].pc if value is LABEL
                else value
                for key, value in EXPECTED_EXTRA[step.op.name].items()
            }
            for step in tracer.steps if step.op.name in EXPECTED_EXTRA
        }
        assert len(expected) == len(EXPECTED_EXTRA)
        return tracer.steps, expected

    def test_read_keys_carry_the_operands(self, state):
        steps, expected = self._steps_and_expected(state)
        for index, extra in expected.items():
            step = steps[index]
            assert {key: step.extra[key] for key in extra} == extra, step

    def test_nothing_else_is_carried(self, state):
        steps, expected = self._steps_and_expected(state)
        for step in steps:
            assert step.extra == expected.get(step.index, {}), step
