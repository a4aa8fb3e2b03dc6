"""Per-field mutations of every declared wire body (ROADMAP 5(b)).

The schema says which parts of a body hold which field
(:meth:`repro.crypto.schema.Record.layout`), so hostile bytes are aimed
at fields instead of at random offsets.  Every part of every field of
every registry message, of the proofs nested in them and of every
:mod:`repro.net.wire` frame is mutated in turn: truncated by one byte,
extended by one byte, a uint (every shape count among them) ±1, an
element replaced by an invalid encoding, a scalar by ``v + q``, a text
by invalid UTF-8.  Each mutated frame must raise ``EncodingError`` or
``NotOnGroupError``, or decode to a value that re-encodes to exactly the
size the schema derives for it.

Runs on p64-sim, p128-sim and both ristretto255 backends, and needs
nothing beyond the standard library and pytest.
"""

import pytest

from repro.api.queries import BoundedSumQuery, CountQuery, HistogramQuery
from repro.core.params import setup
from repro.core.plan import AggregationPlan
from repro.crypto.serialization import _registry, decode_message, encode_message, wire_size
from repro.errors import EncodingError, NotOnGroupError
from repro.net import wire
from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed, int_to_bytes
from repro.utils.rng import SeededRNG
from test_message_registry_roundtrip import BUILDERS

REJECTED = (EncodingError, NotOnGroupError)


@pytest.fixture(
    scope="module",
    params=["p64-sim", "p128-sim", "ristretto255-pure", "ristretto255-sodium"],
)
def params(request, group_for):
    return setup(1.0, 2**-10, num_provers=2, group=group_for(request.param), nb_override=31)


def _leaf_mutations(kind, part, q):
    """Mutations of one part that holds a value of ``kind``."""
    out = [part[:-1], part + b"\x01"] if part else [b"\x01"]
    if kind.label == "uint":
        value = int.from_bytes(part, "big")
        out += [int_to_bytes(value + 1)] + ([int_to_bytes(value - 1)] if value else [])
    elif kind.label == "element":
        out.append(b"\xff" * len(part))
    elif kind.label == "scalar":
        value = int.from_bytes(part, "big") + q
        out.append(value.to_bytes(max(len(part), (value.bit_length() + 7) // 8), "big"))
    elif kind.label == "text":
        out.append(part + b"\xff")
    return out


def _body_mutations(record, parts, q):
    """Every body that differs from ``parts`` in one mutated part of one
    field, recursing into nested records."""
    for field, start, stop in record.layout(parts):
        kind = field.kind
        for at in range(start, stop):
            part = parts[at]
            if kind.label in ("record", "union"):
                inner = decode_length_prefixed(part)
                sub = kind.sub if kind.label == "record" else kind.sub[inner[0]]
                variants = [part[:-1], part + b"\x01"] + [
                    encode_length_prefixed(*mutated)
                    for mutated in _body_mutations(sub, inner, q)
                ]
            else:
                variants = _leaf_mutations(kind, part, q)
            for variant in variants:
                yield parts[:at] + [variant] + parts[at + 1 :]


def _check(record, frame, decode, resize, q, rejected=REJECTED):
    """Mutate every field of ``frame`` (a body of ``record``) and hold each
    result to "rejected, or re-encodes to its derived size"."""
    parts = decode_length_prefixed(frame)
    assert record.layout(parts)[-1][2] == len(parts)  # the representative fits its shape
    for mutated in _body_mutations(record, parts, q):
        data = encode_length_prefixed(*mutated)
        try:
            value = decode(data)
        except rejected:
            continue
        size, encoded = resize(value)
        assert size == len(encoded), data.hex()


@pytest.mark.parametrize("tag", sorted(_registry()[0]))
def test_every_field_of_every_registry_message(params, tag):
    cls, record = _registry()[0][tag]
    group, q = params.group, params.q
    for message in BUILDERS[cls](params):
        magic, frame_tag, body = decode_length_prefixed(encode_message(message))
        _check(
            record,
            body,
            lambda data: decode_message(group, encode_length_prefixed(magic, frame_tag, data)),
            lambda value: (wire_size(value), encode_message(value)),
            q,
        )


def _wire_frames(params):
    """(record, frame, exceptions a mutation may raise) of every wire frame."""
    client = CountQuery(1.0, 2**-10).make_client("client-0", 1, SeededRNG("mutations"))
    broadcast, privates = client.submit(params)
    plans = [
        AggregationPlan.identity(1),
        HistogramQuery(bins=3, epsilon=1.0, delta=2**-10).build_plan(),
        BoundedSumQuery(value_bits=3, epsilon=1.0, delta=2**-10).build_plan(),
    ]
    return [
        (wire._PARAMS, wire.encode_params(params), REJECTED),
        *[(wire._PLAN, wire.encode_plan(plan), REJECTED) for plan in plans],
        (wire._ENROLL, wire.encode_enrollment(broadcast, privates), REJECTED),
        (wire._CONTROL, wire.encode_control("setup", b"a", b""), REJECTED),
        (wire._RPC, wire.encode_rpc("share-check", b"xyz"), REJECTED),
        (wire._REPLY, wire.encode_reply(b"\x01", b""), REJECTED),
        (wire._REPLY, wire.encode_abort_reply("boom"), REJECTED),
        (wire._STR_LIST, wire.encode_str_list(["client-0", "client-1"]), REJECTED),
        (wire._BYTES_LIST, wire.encode_bytes_list([b"\x00" * 32, b""]), REJECTED),
        (wire._INT_LIST, wire.encode_int_list([0, 5, 2**70]), REJECTED),
        (wire._BIT_MATRIX, wire.encode_bit_matrix([[0, 1, 1], [1, 0, 0]]), REJECTED),
    ]


def test_every_field_of_every_wire_frame(params):
    for record, frame, rejected in _wire_frames(params):
        _check(
            record,
            frame,
            lambda data: record.decode(None, data),
            lambda value: (record.size(value), record.encode(value)),
            params.q,
            rejected,
        )


def test_zero_lane_bit_matrix_is_refused():
    """rows = 2**24 and lanes = 0 pass ``len(bits) == rows * lanes`` with an
    empty payload; decoding them used to build 16.7 M empty rows."""
    frame = encode_length_prefixed(int_to_bytes(1 << 24), int_to_bytes(0), b"")
    with pytest.raises(EncodingError, match="at least one row and one lane"):
        wire.decode_bit_matrix(frame)
