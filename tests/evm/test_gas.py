"""Gas metering: the paper's deterministic-gas consistency constraint."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evm.errors import OutOfGas
from repro.evm.gas import DEFAULT_SCHEDULE, GasMeter, GasSchedule


class TestGasMeter:
    def test_consume_reduces_remaining(self):
        meter = GasMeter(100)
        meter.consume(30)
        assert meter.remaining == 70
        assert meter.consumed == 30

    def test_consume_beyond_limit_raises(self):
        meter = GasMeter(10)
        with pytest.raises(OutOfGas):
            meter.consume(11)
        # The failed check must not consume anything.
        assert meter.remaining == 10

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            GasMeter(10).consume(-1)

    def test_return_gas_from_child(self):
        meter = GasMeter(100)
        meter.consume(60)
        meter.return_gas(25)
        assert meter.remaining == 65
        assert meter.consumed == 35

    def test_refund_accumulates(self):
        meter = GasMeter(100)
        meter.add_refund(10)
        meter.add_refund(5)
        assert meter.refund == 15

    @given(st.lists(st.integers(0, 50), max_size=30))
    def test_consumed_plus_remaining_invariant(self, amounts):
        meter = GasMeter(1000)
        for amount in amounts:
            try:
                meter.consume(amount)
            except OutOfGas:
                break
        assert meter.consumed + meter.remaining == 1000


class TestSchedule:
    def test_memory_cost_is_quadratic(self):
        schedule = GasSchedule()
        linear = schedule.memory_cost(10)
        assert linear == 3 * 10 + 100 // 512
        big = schedule.memory_cost(1024)
        assert big == 3 * 1024 + 1024 * 1024 // 512

    def test_expansion_cost_is_marginal(self):
        schedule = GasSchedule()
        assert schedule.memory_expansion_cost(10, 10) == 0
        assert schedule.memory_expansion_cost(10, 5) == 0
        marginal = schedule.memory_expansion_cost(0, 4)
        assert marginal == schedule.memory_cost(4)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_expansion_cost_nonnegative(self, a, b):
        assert DEFAULT_SCHEDULE.memory_expansion_cost(a, b) >= 0

    def test_intrinsic_gas_counts_bytes(self):
        schedule = GasSchedule()
        assert schedule.intrinsic_gas(b"") == 21000
        assert schedule.intrinsic_gas(b"\x00") == 21004
        assert schedule.intrinsic_gas(b"\x01") == 21016

    def test_intrinsic_gas_create_surcharge(self):
        schedule = GasSchedule()
        assert schedule.intrinsic_gas(b"", is_create=True) == 53000

    @given(
        data=st.binary(max_size=300),
        is_create=st.booleans(),
        schedule=st.sampled_from([
            DEFAULT_SCHEDULE,
            GasSchedule(tx_base=1000, tx_data_zero_byte=7,
                        tx_data_nonzero_byte=3),
        ]),
    )
    def test_intrinsic_gas_equals_the_per_byte_definition(
        self, data, is_create, schedule
    ):
        """The closed form is the yellow paper's loop: a base, the create
        surcharge, and each calldata byte priced by whether it is zero."""
        expected = schedule.tx_base + (32000 if is_create else 0)
        for byte in data:
            expected += (
                schedule.tx_data_zero_byte if byte == 0
                else schedule.tx_data_nonzero_byte
            )
        assert schedule.intrinsic_gas(data, is_create) == expected
