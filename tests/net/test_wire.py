"""Wire registry and node-protocol framing: round-trips and hostile input.

Satellite coverage for the `repro.net` redesign: every registered message
type round-trips across all three group backends, and malformed /
truncated / wrong-magic frames raise :class:`EncodingError` (never crash,
never decode to something else).
"""

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

BACKENDS = ["p64-sim", "ristretto255", "p256"]


@pytest.fixture(scope="module", params=BACKENDS)
def params(request):
    return setup(1.0, 2**-10, num_provers=2, group=request.param, nb_override=31)


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
