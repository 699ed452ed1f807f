"""The served wire codec against the generic JSON codec it bypasses.

Replies: ``protocol.receipt_frame`` writes a receipt reply by hand; over
arbitrary receipts and request ids it must write the bytes of
``encode_frame(response(id, receipt_to_wire(...)))`` — the generic
encoder and the dict form ``receipt_from_wire`` inverts are the oracle.

Requests: ``protocol.decode_frame`` runs json's scanner once over the
UTF-8 line; over lines near the canonical request (reordered keys,
extra whitespace, escapes, arrays, truncations, oversized numbers) and
over arbitrary bytes it must return what ``json.loads(line)`` returns,
or refuse with the code that refusal maps to. The deliberate
differences, each a ``PARSE_ERROR`` here where ``json.loads`` accepted:

* a line that is not plain UTF-8 — a UTF-8 BOM, UTF-16/32 (which
  ``json.loads`` sniffs from a BOM or NUL bytes), surrogates encoded as
  UTF-8 bytes (which it decodes with ``surrogatepass``): the protocol
  is UTF-8 JSON;
* a non-finite number — ``NaN``, ``Infinity``, ``-Infinity`` or a
  literal that overflows a float (``1e400``): RFC 8259 JSON has none,
  and a reply echoing one would not be JSON.

CI runs this file at 1000 examples (``--hypothesis-profile thorough``).
"""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.chain import LogEntry, Receipt
from repro.serve import protocol
from repro.serve.errors import INVALID_REQUEST, PARSE_ERROR, RpcError


# -- replies ---------------------------------------------------------------
def oracle_frame(request_id, receipt, block_height, tx_index) -> bytes:
    return protocol.encode_frame(protocol.response(
        request_id,
        protocol.receipt_to_wire(receipt, block_height, tx_index),
    ))


words = st.integers(min_value=0, max_value=2**256 - 1)
addresses = st.integers(min_value=0, max_value=2**160 - 1)
logs = st.builds(
    LogEntry,
    address=addresses,
    topics=st.lists(words, max_size=4).map(tuple),
    data=st.binary(max_size=96),
)
#: Quotes, backslashes, control characters and non-ASCII text (the
#: characters a JSON string escapes) beside anything else.
error_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f é€𝄞'),
        st.characters(),
    ),
    max_size=40,
)
receipts = st.builds(
    Receipt,
    tx_hash=st.binary(min_size=32, max_size=32),
    success=st.booleans(),
    gas_used=st.integers(min_value=0, max_value=2**64),
    logs=st.lists(logs, max_size=3).map(tuple),
    output=st.one_of(
        st.just(b""), st.binary(max_size=64),
        st.binary(min_size=2048, max_size=4096),
    ),
    contract_address=st.one_of(st.none(), addresses),
    error=error_texts,
)
request_ids = st.one_of(
    st.just(0),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=12),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
heights = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))


@given(request_ids, receipts, heights, heights)
def test_receipt_frame_writes_the_generic_encoders_bytes(
    request_id, receipt, block_height, tx_index
):
    assert protocol.receipt_frame(
        request_id, receipt, block_height, tx_index
    ) == oracle_frame(request_id, receipt, block_height, tx_index)


def test_a_transfer_receipt_frame_pinned():
    receipt = Receipt(tx_hash=b"\x01" * 32, success=True, gas_used=21000)
    assert protocol.receipt_frame(7, receipt, 3, 0) == (
        b'{"jsonrpc":"2.0","id":7,"result":{"txHash":"' + b"01" * 32
        + b'","success":true,"gasUsed":21000,"output":"","logs":[],'
        b'"contractAddress":null,"error":"","blockHeight":3,"txIndex":0}}\n'
    )


# -- requests --------------------------------------------------------------
def _has_non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_has_non_finite(value) for value in obj.values())
    if isinstance(obj, list):
        return any(_has_non_finite(value) for value in obj)
    return False


def reference(line: bytes):
    """``json.loads(line)`` — the decoder ``decode_frame`` replaced — and
    its refusals as RPC codes, less the deliberate differences."""
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return PARSE_ERROR  # deliberate: UTF-8 only
    if json.detect_encoding(line) != "utf-8":
        return PARSE_ERROR  # deliberate: no BOM, no UTF-16/32
    try:
        obj = json.loads(line)
    except ValueError:
        return PARSE_ERROR
    if _has_non_finite(obj):
        return PARSE_ERROR  # deliberate: JSON has no NaN or Infinity
    if not isinstance(obj, dict):
        return INVALID_REQUEST
    return obj


def decoded(line: bytes):
    try:
        return protocol.decode_frame(line)
    except RpcError as err:
        return err.code


def _escaped(text: str, escape_mask: list[bool]) -> str:
    return "".join(
        "\\u%04x" % ord(char) if escape else char
        for char, escape in zip(text, escape_mask)
    )


number_literals = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.sampled_from([
        "0", "-0", "1.5", "-2.5e-3", "1E+2", "1e400", "-1e400", "NaN",
        "Infinity", "-Infinity", "9" * 400, "9" * 5000, "01", "1.", ".5",
        "+1", "0x10",
    ]),
)
json_scalars = st.one_of(
    number_literals,
    st.sampled_from(["null", "true", "false", '"a"', '"\\u00e9"', "[]",
                     "{}", '"\\ud834\\udd1e"', '"\\ud800"']),
)
whitespace = st.text(alphabet=" \t\r\n", max_size=2)


@st.composite
def request_lines(draw) -> bytes:
    tx_hex = draw(st.binary(min_size=1, max_size=40)).hex()
    tx = _escaped(tx_hex, draw(st.lists(
        st.booleans(), min_size=len(tx_hex), max_size=len(tx_hex)
    )))
    params = [("tx", f'"{tx}"'), ("wait", draw(st.sampled_from(
        ["true", "false"]))), ("deadline_ms", draw(number_literals))]
    members = [
        ("jsonrpc", '"2.0"'),
        ("id", draw(json_scalars)),
        ("method", '"repro_sendTransaction"'),
        ("params", "{%s}" % ",".join(
            f'"{key}":{value}'
            for key, value in draw(st.permutations(params))
            [:draw(st.integers(1, len(params)))]
        )),
    ]
    if draw(st.booleans()):
        members.append(("extra", draw(json_scalars)))
    members = draw(st.permutations(members))
    body = "{%s}" % ",".join(
        f'{draw(whitespace)}"{key}"{draw(whitespace)}:'
        f'{draw(whitespace)}{value}{draw(whitespace)}'
        for key, value in members
    )
    if draw(st.booleans()):
        body = "[" + body + "]"
    text = (draw(whitespace) + body + draw(whitespace)
            + draw(st.sampled_from(["\n", "\r\n", "", "\n\n", " x\n"])))
    line = text.encode()
    mutation = draw(st.sampled_from(
        ["none", "none", "truncate", "bom", "utf-16", "utf-32",
         "surrogate", "byte"]
    ))
    if mutation == "truncate":
        line = line[:draw(st.integers(0, max(0, len(line) - 1)))]
    elif mutation == "bom":
        line = b"\xef\xbb\xbf" + line
    elif mutation == "utf-16":
        line = text.encode(draw(st.sampled_from(
            ["utf-16", "utf-16-le", "utf-16-be"])))
    elif mutation == "utf-32":
        line = text.encode(draw(st.sampled_from(
            ["utf-32", "utf-32-le", "utf-32-be"])))
    elif mutation == "surrogate":
        at = line.index(b'"repro_') + 7
        line = line[:at] + "\ud800".encode("utf-8", "surrogatepass") \
            + line[at:]
    elif mutation == "byte":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + bytes([draw(st.integers(0, 255))]) + line[at:]
    return line


@given(request_lines())
def test_decode_frame_agrees_with_json_loads_near_the_canonical_request(
    line,
):
    assert decoded(line) == reference(line)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)


@given(json_values, st.booleans())
def test_decode_frame_agrees_with_json_loads_on_any_json_value(
    value, ensure_ascii
):
    line = (json.dumps(value, ensure_ascii=ensure_ascii) + "\n").encode()
    assert decoded(line) == reference(line)


@given(st.binary(max_size=64))
def test_decode_frame_agrees_with_json_loads_on_any_bytes(line):
    assert decoded(line) == reference(line)


def test_the_non_utf8_lines_json_loads_accepted_are_parse_errors():
    # The non-finite numbers are pinned in test_protocol.py.
    canonical = b'{"jsonrpc":"2.0","id":1,"method":"repro_health"}'
    assert json.loads(b"\xef\xbb\xbf" + canonical)
    assert json.loads(canonical.decode().encode("utf-16"))
    assert json.loads(b'{"a":"\xed\xa0\x80"}')
    for line in (
        b"\xef\xbb\xbf" + canonical,
        canonical.decode().encode("utf-16"),
        canonical.decode().encode("utf-32-le"),
        b'{"a":"\xed\xa0\x80"}',
    ):
        assert decoded(line) == PARSE_ERROR, line
