"""Property-based EVM tests: randomized programs vs a Python reference,
and global gas determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction, WorldState
from repro.contracts.asm import assemble
from repro.evm import EVM, abi
from repro.evm.alu import _ARITH_FN, _LOGIC_FN

ALICE = 0xA1
CONTRACT = 0xC0

#: Binary ops safe for random composition (total functions on words).
BINARY_OPS = ["ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR",
              "LT", "GT", "EQ"]

RETURN_TOP = "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"

word = st.integers(0, (1 << 256) - 1)


@st.composite
def straight_line_programs(draw):
    """A random arithmetic expression in postfix form.

    Returns (assembly source, expected top-of-stack value).
    """
    # Start with one operand; each step pushes a value and applies an op.
    initial = draw(word)
    source_lines = [f"PUSH32 {initial:#066x}"]
    value = initial
    for _ in range(draw(st.integers(0, 12))):
        operand = draw(word)
        op = draw(st.sampled_from(BINARY_OPS))
        source_lines.append(f"PUSH32 {operand:#066x}")
        source_lines.append(op)
        # Stack is [value, operand]; binary ops take top as first arg.
        fn = _ARITH_FN.get(op) or _LOGIC_FN[op]
        value = fn(operand, value)
    return "\n".join(source_lines) + "\n" + RETURN_TOP, value


def execute(source, gas_limit=2_000_000):
    state = WorldState()
    state.set_balance(ALICE, 10**24)
    state.set_code(CONTRACT, assemble(source))
    evm = EVM(state)
    return evm.execute_transaction(
        Transaction(sender=ALICE, to=CONTRACT, gas_limit=gas_limit)
    )


class TestRandomPrograms:
    @settings(max_examples=60, deadline=None)
    @given(straight_line_programs())
    def test_matches_python_reference(self, program):
        source, expected = program
        receipt = execute(source)
        assert receipt.success
        assert abi.decode_uint(receipt.output) == expected

    @settings(max_examples=25, deadline=None)
    @given(straight_line_programs())
    def test_gas_is_deterministic(self, program):
        source, _ = program
        first = execute(source)
        second = execute(source)
        assert first.gas_used == second.gas_used

    @settings(max_examples=25, deadline=None)
    @given(straight_line_programs(), st.integers(21_000, 40_000))
    def test_tight_gas_never_commits_partially(self, program, gas_limit):
        """Whatever the gas limit, the outcome is all-or-nothing."""
        source, expected = program
        state = WorldState()
        state.set_balance(ALICE, 10**24)
        code = assemble(
            "PUSH 1\nPUSH 0\nSSTORE\n" + source
        )
        state.set_code(CONTRACT, code)
        receipt = EVM(state).execute_transaction(
            Transaction(sender=ALICE, to=CONTRACT, gas_limit=gas_limit)
        )
        stored = state.get_storage(CONTRACT, 0)
        if receipt.success:
            assert stored == 1
        else:
            assert stored == 0

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytecode_never_crashes_interpreter(self, code):
        """Garbage bytecode must fail gracefully, never raise out of the
        transaction boundary."""
        state = WorldState()
        state.set_balance(ALICE, 10**24)
        state.set_code(CONTRACT, bytes(code))
        receipt = EVM(state).execute_transaction(
            Transaction(sender=ALICE, to=CONTRACT, gas_limit=200_000)
        )
        assert isinstance(receipt.success, bool)
        assert receipt.gas_used <= 200_000

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytecode_state_atomicity(self, code):
        """Failed garbage execution leaves the world digest untouched
        except for fee accounting and the sender nonce."""
        state = WorldState()
        state.set_balance(ALICE, 10**24)
        state.set_code(CONTRACT, bytes(code))
        storage_before = dict(state.account(CONTRACT).storage)
        receipt = EVM(state).execute_transaction(
            Transaction(sender=ALICE, to=CONTRACT, gas_limit=200_000)
        )
        if not receipt.success:
            assert state.account(CONTRACT).storage == storage_before
