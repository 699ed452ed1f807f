"""Arithmetic/logic instruction semantics, checked against Python
references (including hypothesis comparisons on 256-bit corner values)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.evm.alu import _ARITH_FN, _LOGIC_FN, _to_signed

WORD = (1 << 256) - 1
words = st.integers(min_value=0, max_value=WORD)
edge_words = st.sampled_from(
    [0, 1, 2, WORD, WORD - 1, 1 << 255, (1 << 255) - 1, 1 << 128]
)
mixed = st.one_of(words, edge_words)


class TestUnsignedArithmetic:
    @given(mixed, mixed)
    def test_add_wraps(self, a, b):
        assert _ARITH_FN["ADD"](a, b) == (a + b) % (1 << 256)

    @given(mixed, mixed)
    def test_sub_wraps(self, a, b):
        assert _ARITH_FN["SUB"](a, b) == (a - b) % (1 << 256)

    @given(mixed, mixed)
    def test_mul_wraps(self, a, b):
        assert _ARITH_FN["MUL"](a, b) == (a * b) % (1 << 256)

    @given(mixed, mixed)
    def test_div(self, a, b):
        expected = 0 if b == 0 else a // b
        assert _ARITH_FN["DIV"](a, b) == expected

    def test_div_by_zero_is_zero(self):
        assert _ARITH_FN["DIV"](123, 0) == 0

    @given(mixed, mixed)
    def test_mod(self, a, b):
        expected = 0 if b == 0 else a % b
        assert _ARITH_FN["MOD"](a, b) == expected

    @given(mixed, mixed, mixed)
    def test_addmod_full_precision(self, a, b, n):
        expected = 0 if n == 0 else (a + b) % n
        assert _ARITH_FN["ADDMOD"](a, b, n) == expected

    @given(mixed, mixed, mixed)
    def test_mulmod_full_precision(self, a, b, n):
        expected = 0 if n == 0 else (a * b) % n
        assert _ARITH_FN["MULMOD"](a, b, n) == expected

    @given(mixed, st.integers(0, 300))
    def test_exp(self, base, exponent):
        assert _ARITH_FN["EXP"](base, exponent) == pow(
            base, exponent, 1 << 256
        )


class TestSignedArithmetic:
    def test_sdiv_signs(self):
        minus_one = WORD
        assert _ARITH_FN["SDIV"](minus_one, 1) == minus_one  # -1/1 = -1
        two = 2
        minus_two = WORD - 1
        assert _to_signed(_ARITH_FN["SDIV"](minus_two, two)) == -1

    def test_sdiv_truncates_toward_zero(self):
        minus_seven = (1 << 256) - 7
        assert _to_signed(_ARITH_FN["SDIV"](minus_seven, 2)) == -3

    def test_sdiv_by_zero(self):
        assert _ARITH_FN["SDIV"](5, 0) == 0

    def test_smod_sign_follows_dividend(self):
        minus_seven = (1 << 256) - 7
        assert _to_signed(_ARITH_FN["SMOD"](minus_seven, 3)) == -1
        assert _ARITH_FN["SMOD"](7, (1 << 256) - 3) == 1

    @given(st.integers(-(10**20), 10**20), st.integers(-(10**10), 10**10))
    def test_sdiv_matches_c_semantics(self, a, b):
        ua, ub = a % (1 << 256), b % (1 << 256)
        result = _to_signed(_ARITH_FN["SDIV"](ua, ub))
        if b == 0:
            assert result == 0
        else:
            expected = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                expected = -expected
            assert result == expected

    def test_signextend(self):
        # Sign-extend a one-byte value.
        assert _ARITH_FN["SIGNEXTEND"](0, 0xFF) == WORD  # -1
        assert _ARITH_FN["SIGNEXTEND"](0, 0x7F) == 0x7F
        assert _ARITH_FN["SIGNEXTEND"](31, 0xFF) == 0xFF

    @given(mixed)
    def test_signextend_31_is_identity(self, value):
        assert _ARITH_FN["SIGNEXTEND"](31, value) == value


class TestLogic:
    @given(mixed, mixed)
    def test_comparisons(self, a, b):
        assert _LOGIC_FN["LT"](a, b) == (1 if a < b else 0)
        assert _LOGIC_FN["GT"](a, b) == (1 if a > b else 0)
        assert _LOGIC_FN["EQ"](a, b) == (1 if a == b else 0)

    @given(mixed, mixed)
    def test_signed_comparisons(self, a, b):
        assert _LOGIC_FN["SLT"](a, b) == (
            1 if _to_signed(a) < _to_signed(b) else 0
        )
        assert _LOGIC_FN["SGT"](a, b) == (
            1 if _to_signed(a) > _to_signed(b) else 0
        )

    def test_slt_extremes(self):
        most_negative = 1 << 255
        assert _LOGIC_FN["SLT"](most_negative, 0) == 1
        assert _LOGIC_FN["SGT"](0, most_negative) == 1

    @given(mixed)
    def test_iszero(self, a):
        assert _LOGIC_FN["ISZERO"](a) == (1 if a == 0 else 0)

    @given(mixed, mixed)
    def test_bitwise(self, a, b):
        assert _LOGIC_FN["AND"](a, b) == a & b
        assert _LOGIC_FN["OR"](a, b) == a | b
        assert _LOGIC_FN["XOR"](a, b) == a ^ b

    @given(mixed)
    def test_not_is_involution(self, a):
        assert _LOGIC_FN["NOT"](_LOGIC_FN["NOT"](a)) == a

    def test_byte(self):
        value = int.from_bytes(bytes(range(32)), "big")
        assert _LOGIC_FN["BYTE"](0, value) == 0
        assert _LOGIC_FN["BYTE"](31, value) == 31
        assert _LOGIC_FN["BYTE"](32, value) == 0  # out of range

    @given(st.integers(0, 300), mixed)
    def test_shl_shr(self, shift, value):
        if shift >= 256:
            assert _LOGIC_FN["SHL"](shift, value) == 0
            assert _LOGIC_FN["SHR"](shift, value) == 0
        else:
            assert _LOGIC_FN["SHL"](shift, value) == (
                (value << shift) & WORD
            )
            assert _LOGIC_FN["SHR"](shift, value) == value >> shift

    def test_sar_sign_fill(self):
        minus_four = (1 << 256) - 4
        assert _to_signed(_LOGIC_FN["SAR"](1, minus_four)) == -2
        assert _LOGIC_FN["SAR"](300, minus_four) == WORD  # -1
        assert _LOGIC_FN["SAR"](300, 4) == 0
