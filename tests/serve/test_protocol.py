"""Wire codec round-trips and framing errors."""

import pytest

from repro.chain import LogEntry, Receipt, Transaction
from repro.serve import protocol
from repro.serve.errors import INVALID_REQUEST, PARSE_ERROR, RpcError


class TestFraming:
    def test_frame_round_trip(self):
        obj = protocol.request("repro_stats", {"a": 1}, request_id=7)
        line = protocol.encode_frame(obj)
        assert line.endswith(b"\n")
        assert protocol.decode_frame(line) == obj

    def test_frame_is_single_line(self):
        frame = protocol.encode_frame(
            protocol.response(1, {"text": "a\nb"})
        )
        assert frame.count(b"\n") == 1

    def test_bad_json_is_parse_error(self):
        with pytest.raises(RpcError) as err:
            protocol.decode_frame(b"{nope}\n")
        assert err.value.code == PARSE_ERROR

    @pytest.mark.parametrize("opener", [b"[", b'{"a":'])
    def test_deep_nesting_is_a_parse_error(self, opener):
        # Deeper than json's scanner recurses, yet far under the line
        # bound: refused like any other unparsable line.
        with pytest.raises(RpcError) as err:
            protocol.decode_frame(opener * 100_000 + b"\n")
        assert err.value.code == PARSE_ERROR

    def test_non_object_rejected(self):
        with pytest.raises(RpcError) as err:
            protocol.decode_frame(b"[1,2]\n")
        assert err.value.code == INVALID_REQUEST

    @pytest.mark.parametrize(
        "literal", [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400"]
    )
    def test_non_finite_numbers_are_parse_errors(self, literal):
        # JSON has no such numbers, and a reply echoing one as the id
        # would not be JSON either.
        line = (b'{"jsonrpc":"2.0","id":%s,"method":"repro_health"}\n'
                % literal)
        with pytest.raises(RpcError) as err:
            protocol.decode_frame(line)
        assert err.value.code == PARSE_ERROR

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_a_non_finite_reply_is_refused_not_written(self, value):
        with pytest.raises(ValueError):
            protocol.encode_frame(protocol.response(1, {"x": value}))


class TestTxCodec:
    def test_tx_round_trip(self):
        tx = Transaction(sender=0xA11CE, to=0xB0B, nonce=3,
                         value=17, data=b"\x01\x02", gas_limit=60_000)
        wire = protocol.tx_to_wire(tx)
        back = protocol.tx_from_wire(wire)
        assert back.hash() == tx.hash()

    def test_undecodable_tx_is_typed_error(self):
        with pytest.raises(RpcError) as err:
            protocol.tx_from_wire("zz-not-hex")
        assert err.value.code == INVALID_REQUEST


class TestReceiptCodec:
    def test_receipt_round_trip(self):
        receipt = Receipt(
            tx_hash=b"\x01" * 32,
            success=False,
            gas_used=21_412,
            logs=(LogEntry(address=5, topics=(1, 2), data=b"\xff"),),
            output=b"\xaa",
            error="revert",
        )
        wire = protocol.receipt_to_wire(receipt, 9, 2)
        assert wire["blockHeight"] == 9 and wire["txIndex"] == 2
        assert protocol.receipt_from_wire(wire) == receipt
