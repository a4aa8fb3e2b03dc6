"""Wire registry and node-protocol framing: round-trips and hostile input.

Satellite coverage for the `repro.net` redesign: every registered message
type round-trips across all three group backends, and malformed /
truncated / wrong-magic frames raise :class:`EncodingError` (never crash,
never decode to something else).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    AuditRecord,
    ClientBroadcast,
    ClientShareMessage,
    ClientStatus,
    CoinCommitmentMessage,
    MorraCommitMessage,
    MorraRevealMessage,
    ProverOutputMessage,
    ProverStatus,
    Release,
)
from repro.core.params import setup
from repro.core.plan import AggregationPlan
from repro.crypto.serialization import (
    decode_message,
    encode_message,
    wire_size,
)
from repro.errors import EncodingError, NotOnGroupError
from repro.net import wire
from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed
from repro.utils.rng import SeededRNG

BACKENDS = ["p64-sim", "p256-sim", "ristretto255", "ristretto255-pure"]


@pytest.fixture(scope="module", params=BACKENDS)
def params(request, group_for):
    return setup(1.0, 2**-10, num_provers=2, group=group_for(request.param), nb_override=31)


def _sample_enrollment(params, seed="wire-client", query=None):
    from repro.api.queries import CountQuery

    query = query or CountQuery(epsilon=1.0, delta=2**-10)
    client = query.make_client("client-0", 1, SeededRNG(seed))
    return client.submit(params)


def _sample_coin_message(params, rows=3, seed="wire-coins"):
    from repro.core.prover import Prover

    prover = Prover("prover-0", params, SeededRNG(seed))
    prover.begin_coin_stream(b"ctx")
    message = prover.commit_coin_chunk(rows)
    return message


class TestMessageRegistry:
    def test_client_broadcast_roundtrip(self, params):
        broadcast, _ = _sample_enrollment(params)
        restored = decode_message(params.group, encode_message(broadcast))
        assert restored == broadcast

    def test_client_share_roundtrip(self, params):
        _, privates = _sample_enrollment(params)
        for message in privates:
            assert decode_message(params.group, encode_message(message)) == message

    def test_coin_commitments_roundtrip(self, params):
        message = _sample_coin_message(params)
        assert decode_message(params.group, encode_message(message)) == message

    def test_prover_output_roundtrip(self, params):
        message = ProverOutputMessage(prover_id="prover-1", y=(3, 5), z=(7, 11))
        assert decode_message(params.group, encode_message(message)) == message

    def test_morra_roundtrips(self, params):
        commit = MorraCommitMessage(sender="verifier", digests=(b"\x01" * 32, b"\x02" * 32))
        reveal = MorraRevealMessage(sender="verifier", values=(0, 1, params.q - 1))
        assert decode_message(params.group, encode_message(commit)) == commit
        assert decode_message(params.group, encode_message(reveal)) == reveal

    def test_release_roundtrip(self, params):
        audit = AuditRecord(
            clients={"client-0": ClientStatus.VALID, "client-1": ClientStatus.BAD_OPENING},
            provers={"prover-0": ProverStatus.HONEST, "prover-1": ProverStatus.ABORTED},
        )
        audit.note("prover-1: went silent")
        release = Release(
            raw=(17, 3),
            estimate=(1.5, -2.25),
            accepted=False,
            audit=audit,
            epsilon=0.88,
            delta=2**-10,
        )
        restored = decode_message(params.group, encode_message(release))
        assert restored == release

    def test_wire_size_matches_encoding(self, params):
        message = _sample_coin_message(params)
        assert wire_size(message) == len(encode_message(message))

    def test_wire_size_none_for_unregistered(self):
        assert wire_size(42) is None
        assert wire_size("hello") is None

    def test_validity_proof_survives_verification(self, params):
        # A decoded broadcast must still verify — decoding validates
        # group membership, re-encoding is canonical.
        from repro.core.verifier import PublicVerifier

        broadcast, _ = _sample_enrollment(params)
        restored = decode_message(params.group, encode_message(broadcast))
        verifier = PublicVerifier(params, SeededRNG("v"))
        assert verifier.validate_clients([restored]) == ["client-0"]


class TestHostileFrames:
    def test_wrong_magic(self, params):
        frame = bytearray(encode_message(_sample_coin_message(params, rows=1)))
        frame[6] ^= 0xFF  # inside WIRE_MAGIC
        with pytest.raises(EncodingError):
            decode_message(params.group, bytes(frame))

    def test_unknown_tag(self, params):
        frame = encode_length_prefixed(b"repro.wire.v1", b"no-such-tag", b"")
        with pytest.raises(EncodingError):
            decode_message(params.group, frame)

    def test_truncated_everywhere(self, params):
        frame = encode_message(_sample_coin_message(params, rows=1))
        for cut in (1, len(frame) // 3, len(frame) - 1):
            with pytest.raises((EncodingError, NotOnGroupError)):
                decode_message(params.group, frame[:cut])

    def test_shape_lies_rejected(self, params):
        # Declare more rows than fields actually present.
        message = _sample_coin_message(params, rows=2)
        parts = decode_length_prefixed(encode_message(message))
        body = decode_length_prefixed(parts[2])
        body[1] = (99).to_bytes(1, "big")  # row count lie
        forged = encode_length_prefixed(
            parts[0], parts[1], encode_length_prefixed(*body)
        )
        with pytest.raises(EncodingError):
            decode_message(params.group, forged)

    def test_bad_group_element_rejected(self, params):
        broadcast, _ = _sample_enrollment(params)
        # Replace the first commitment with an out-of-group encoding
        # (0xff-fill is non-canonical in all three backends); decoding
        # must reject, not hand back a non-element.
        with pytest.raises((EncodingError, NotOnGroupError, ValueError)):
            parts = decode_length_prefixed(encode_message(broadcast))
            body = decode_length_prefixed(parts[2])
            body[3] = b"\xff" * len(body[3])
            decode_message(
                params.group,
                encode_length_prefixed(parts[0], parts[1], encode_length_prefixed(*body)),
            )

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_random_garbage_never_crashes(self, data):
        group = setup(1.0, 2**-10, group="p64-sim", nb_override=31).group
        with pytest.raises((EncodingError, NotOnGroupError, ValueError)):
            decode_message(group, data)

    @given(st.integers(min_value=0, max_value=2**14), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bitflips_never_crash(self, position, data):
        params = setup(1.0, 2**-10, group="p64-sim", nb_override=31)
        frame = bytearray(encode_message(_sample_coin_message(params, rows=1)))
        index = position % len(frame)
        frame[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        try:
            restored = decode_message(params.group, bytes(frame))
        except (EncodingError, NotOnGroupError, ValueError, OverflowError):
            return  # rejected, as it should be
        # A surviving decode means the flip hit malleable scalar bytes;
        # the object must still be structurally sound.
        assert isinstance(restored, CoinCommitmentMessage)


class TestNodeFraming:
    def test_params_spec_reproduces_fingerprint(self, params):
        restored = wire.decode_params(wire.encode_params(params))
        assert restored.fingerprint() == params.fingerprint()

    def test_plan_spec_roundtrip(self):
        for plan in (
            AggregationPlan.identity(1),
            AggregationPlan.identity(4),
            AggregationPlan.weighted_sum((1, 2, 4, 8), 15),
        ):
            assert wire.decode_plan(wire.encode_plan(plan)) == plan

    @pytest.mark.parametrize(
        "validity, dimension, weights",
        [("bogus", 1, ((1,),)), ("bit", 2, ((1, 1),))],
        ids=["unknown-validity", "bit-of-dimension-2"],
    )
    def test_plan_spec_the_plan_refuses_is_an_encoding_error(
        self, validity, dimension, weights
    ):
        """A plan frame that parses but that ``AggregationPlan`` refuses
        is malformed input like any other: ``EncodingError``."""
        refused = SimpleNamespace(
            validity=validity, dimension=dimension, lane_weights=weights, noise_weights=(1,)
        )
        with pytest.raises(EncodingError, match="plan spec refused"):
            wire.decode_plan(wire.encode_plan(refused))

    def test_enrollment_roundtrip(self, params):
        broadcast, privates = _sample_enrollment(params)
        frame = wire.encode_enrollment(broadcast, privates)
        restored_broadcast, restored_privates = wire.decode_enrollment(
            params.group, frame
        )
        assert restored_broadcast == broadcast
        assert restored_privates == privates

    def test_rpc_and_reply(self):
        method, parts = wire.decode_rpc(wire.encode_rpc("begin-coin-stream", b"ctx"))
        assert method == "begin-coin-stream" and parts == [b"ctx"]
        ok, parts = wire.decode_reply(wire.encode_reply(b"a", b"b"))
        assert ok and parts == [b"a", b"b"]
        ok, parts = wire.decode_reply(wire.encode_abort_reply("boom"))
        assert not ok and parts == [b"boom"]

    def test_control_frames(self):
        kind, parts = wire.decode_control(wire.encode_control("finalize"))
        assert kind == "finalize" and parts == []
        assert wire.frame_kind(wire.encode_control("setup")) == "ctrl"

    def test_bit_matrix_roundtrip(self):
        bits = [[0, 1, 1], [1, 0, 0]]
        assert wire.decode_bit_matrix(wire.encode_bit_matrix(bits)) == bits

    def test_bit_matrix_rejects_non_bits(self):
        with pytest.raises(EncodingError):
            wire.encode_bit_matrix([[0, 2]])
        frame = wire.encode_bit_matrix([[0, 1]])
        with pytest.raises(EncodingError):
            wire.decode_bit_matrix(frame[:-1])

    def test_frame_kind_rejects_garbage(self):
        with pytest.raises(EncodingError):
            wire.frame_kind(b"\x00\x00\x00\x04junk")

    def test_non_utf8_party_id_raises_encoding_error(self):
        """Contract regression: invalid UTF-8 in an id field must raise
        EncodingError, never UnicodeDecodeError."""
        params = setup(1.0, 2**-10, group="p64-sim", nb_override=31)
        message = _sample_coin_message(params, rows=1)
        parts = decode_length_prefixed(encode_message(message))
        body = decode_length_prefixed(parts[2])
        body[0] = b"\xff\xfe"  # not valid UTF-8
        forged = encode_length_prefixed(parts[0], parts[1], encode_length_prefixed(*body))
        with pytest.raises(EncodingError):
            decode_message(params.group, forged)

    def test_str_and_int_lists(self):
        assert wire.decode_str_list(wire.encode_str_list(["a", "b"])) == ["a", "b"]
        assert wire.decode_int_list(wire.encode_int_list([0, 7, 2**64])) == [0, 7, 2**64]


def _params_frame(epsilon=1.0, delta=2**-10, nb=31, num_provers=2, dimension=1):
    """A params frame as a hostile analyst would send it: any field value."""
    import struct

    from repro.utils.encoding import int_to_bytes

    return encode_length_prefixed(
        b"repro.net.params.v1",
        b"p64-sim",
        struct.pack(">d", epsilon),
        struct.pack(">d", delta),
        int_to_bytes(nb),
        int_to_bytes(num_provers),
        int_to_bytes(dimension),
    )


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("epsilon", float("nan"), "epsilon"),
        ("epsilon", -1.0, "epsilon"),
        ("epsilon", float("inf"), "epsilon"),
        ("delta", float("nan"), "delta"),
        ("delta", -0.1, "delta"),
        ("delta", 1.5, "delta"),
        ("nb", 0, "nb"),
        ("num_provers", 0, "K >= 1"),
        ("dimension", 0, "dimension"),
    ],
)
def test_params_spec_refuses_what_a_local_setup_refuses(field, value, reason):
    """A decoded ε, δ, nb, K or M that ``setup`` or ``PublicParams`` would
    refuse is an ``EncodingError`` — not a meaningless privacy claim a
    client binds its proof to, and not a ``ParameterError``."""
    assert wire.decode_params(_params_frame()).nb == 31
    with pytest.raises(EncodingError, match=reason):
        wire.decode_params(_params_frame(**{field: value}))


def test_frames_keep_their_v1_bytes():
    """Round trips cannot see two fields swap places; these pins can.  Each
    frame is spelled out part by part as format v1 lays it out."""
    import struct

    from repro.core.messages import MorraRevealMessage, ProverOutputMessage
    from repro.crypto.pedersen import Opening
    from repro.utils.encoding import int_to_bytes

    lp = encode_length_prefixed
    params = setup(1.0, 2**-10, num_provers=2, group="p64-sim", nb_override=31)
    frame = lambda tag, *body: lp(b"repro.wire.v1", tag, lp(*body))  # noqa: E731
    pins = {
        wire.encode_params(params): lp(
            b"repro.net.params.v1", b"p64-sim", struct.pack(">d", params.epsilon),
            struct.pack(">d", params.delta), b"\x1f", b"\x02", b"\x01"),
        wire.encode_plan(AggregationPlan.weighted_sum((1, 2), 3)): lp(
            b"repro.net.plan.v1", b"bitvec", b"\x01", b"\x02", lp(b"\x01", b"\x02"), lp(b"\x03")),
        wire.encode_control("setup", b"a"): lp(b"repro.net.ctrl.v1", b"setup", b"a"),
        wire.encode_rpc("absorb-bits", b"x", b""): lp(b"repro.net.rpc.v1", b"absorb-bits", b"x", b""),
        wire.encode_reply(b"r"): lp(b"repro.net.reply.v1", b"ok", b"r"),
        wire.encode_abort_reply("no"): lp(b"repro.net.reply.v1", b"abort", b"no"),
        wire.encode_str_list(["a", "bc"]): lp(b"a", b"bc"),
        wire.encode_int_list([0, 256]): lp(b"\x00", b"\x01\x00"),
        wire.encode_bit_matrix([[1, 0], [0, 1]]): lp(b"\x02", b"\x02", b"\x01\x00\x00\x01"),
        encode_message(ClientShareMessage("c", (Opening(5, 300),))): frame(
            b"client-share", b"c", b"\x05", b"\x01\x2c"),
        encode_message(ProverOutputMessage("p", (1, 2), (3, 4))): frame(
            b"prover-output", b"p", b"\x02", b"\x01", b"\x02", b"\x03", b"\x04"),
        encode_message(MorraRevealMessage("v", (0, 7))): frame(b"morra-reveal", b"v", b"\x00", b"\x07"),
    }
    for encoded, expected in pins.items():
        assert encoded == expected
