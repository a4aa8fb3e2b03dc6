"""Wire format roundtrips and tamper detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.serialization import (
    advance_coin_transcript_frame,
    decode_bit_proof,
    decode_commitment,
    decode_one_hot_proof,
    encode_bit_proof,
    decode_message,
    encode_commitment,
    encode_message,
    encode_one_hot_proof,
)
from repro.crypto.sigma.onehot import prove_one_hot, verify_one_hot
from repro.crypto.sigma.or_bit import prove_bit, verify_bit
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import SeededRNG


class TestCommitmentRoundtrip:
    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=20)
    def test_roundtrip(self, pedersen64, x):
        c, _ = pedersen64.commit_fresh(x, SeededRNG(f"c{x}"))
        data = encode_commitment(c)
        assert decode_commitment(pedersen64.group, data) == c

    def test_garbage_rejected(self, pedersen64):
        with pytest.raises((EncodingError, NotOnGroupError)):
            decode_commitment(pedersen64.group, b"\x00" * 3)


class TestBitProofRoundtrip:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_roundtrip_and_still_verifies(self, pedersen64, bit):
        rng = SeededRNG(f"bp{bit}")
        c, o = pedersen64.commit_fresh(bit, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(pedersen64.group, encode_bit_proof(proof))
        assert restored == proof
        verify_bit(pedersen64, c, restored, Transcript("t"))

    def test_wrong_magic_rejected(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        data = bytearray(encode_bit_proof(proof))
        data[10] ^= 0xFF  # corrupt inside the magic
        with pytest.raises(EncodingError):
            decode_bit_proof(pedersen64.group, bytes(data))

    def test_truncated_rejected(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(1, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        data = encode_bit_proof(proof)
        with pytest.raises(EncodingError):
            decode_bit_proof(pedersen64.group, data[: len(data) // 2])

    def test_cross_backend(self, ristretto):
        from repro.crypto.pedersen import PedersenParams

        pp = PedersenParams(ristretto)
        rng = SeededRNG("rist")
        c, o = pp.commit_fresh(1, rng)
        proof = prove_bit(pp, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(ristretto, encode_bit_proof(proof))
        verify_bit(pp, c, restored, Transcript("t"))


class TestOneHotRoundtrip:
    def test_roundtrip_and_verifies(self, pedersen64):
        rng = SeededRNG("oh")
        cs, os_ = pedersen64.commit_vector([0, 1, 0, 0], rng)
        proof = prove_one_hot(pedersen64, cs, os_, Transcript("t"), rng)
        restored = decode_one_hot_proof(pedersen64.group, encode_one_hot_proof(proof))
        assert restored == proof
        verify_one_hot(pedersen64, cs, restored, Transcript("t"))

    def test_empty_rejected(self, pedersen64):
        from repro.utils.encoding import encode_length_prefixed

        with pytest.raises(EncodingError):
            decode_one_hot_proof(
                pedersen64.group, encode_length_prefixed(b"repro.onehot.v1")
            )


class TestAllCodecsAllBackends:
    """Satellite sweep: every codec round-trips on every group backend,
    and malformed/truncated/wrong-magic inputs raise EncodingError."""

    @pytest.fixture(
        scope="class", params=["p64-sim", "p256-sim", "ristretto255", "ristretto255-pure"]
    )
    def pp(self, request, group_for):
        from repro.core.params import _resolve_group
        from repro.crypto.pedersen import PedersenParams

        return PedersenParams(_resolve_group(group_for(request.param)))

    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=8, deadline=None)
    def test_bit_proof_property_roundtrip(self, pp, bit, nonce):
        from repro.crypto.serialization import decode_bit_proof, encode_bit_proof

        rng = SeededRNG(f"all-{bit}-{nonce}")
        c, o = pp.commit_fresh(bit, rng)
        proof = prove_bit(pp, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(pp.group, encode_bit_proof(proof))
        assert restored == proof
        verify_bit(pp, c, restored, Transcript("t"))

    def test_one_hot_roundtrip(self, pp):
        from repro.crypto.serialization import (
            decode_one_hot_proof,
            encode_one_hot_proof,
        )

        rng = SeededRNG("all-oh")
        cs, os_ = pp.commit_vector([0, 0, 1], rng)
        proof = prove_one_hot(pp, cs, os_, Transcript("t"), rng)
        restored = decode_one_hot_proof(pp.group, encode_one_hot_proof(proof))
        assert restored == proof
        verify_one_hot(pp, cs, restored, Transcript("t"))

    def test_bit_vector_roundtrip_and_verifies(self, pp):
        from repro.crypto.serialization import (
            decode_bit_vector_proof,
            encode_bit_vector_proof,
        )
        from repro.crypto.sigma.bitvec import prove_bit_vector, verify_bit_vector

        rng = SeededRNG("all-bv")
        cs, os_ = pp.commit_vector([1, 0, 1, 1], rng)
        proof = prove_bit_vector(pp, cs, os_, Transcript("t"), rng)
        restored = decode_bit_vector_proof(pp.group, encode_bit_vector_proof(proof))
        assert restored == proof
        verify_bit_vector(pp, cs, restored, Transcript("t"))

    def test_validity_proof_dispatch(self, pp):
        from repro.crypto.serialization import (
            decode_validity_proof,
            encode_validity_proof,
        )
        from repro.crypto.sigma.bitvec import prove_bit_vector

        rng = SeededRNG("all-dispatch")
        c, o = pp.commit_fresh(1, rng)
        bit = prove_bit(pp, c, o, Transcript("t"), rng)
        cs, os_ = pp.commit_vector([0, 1], rng)
        bitvec = prove_bit_vector(pp, cs, os_, Transcript("t"), rng)
        for proof in (bit, bitvec):
            assert decode_validity_proof(pp.group, encode_validity_proof(proof)) == proof
        with pytest.raises(EncodingError):
            decode_validity_proof(pp.group, b"\x00\x00\x00\x03abc")

    @pytest.mark.parametrize("cut", ["truncate", "magic", "empty"])
    def test_malformed_inputs_rejected(self, pp, cut):
        from repro.crypto.serialization import decode_bit_proof, encode_bit_proof

        rng = SeededRNG("all-bad")
        c, o = pp.commit_fresh(0, rng)
        data = bytearray(encode_bit_proof(prove_bit(pp, c, o, Transcript("t"), rng)))
        if cut == "truncate":
            data = data[: len(data) // 2]
        elif cut == "magic":
            data[8] ^= 0xFF
        else:
            data = b""
        with pytest.raises((EncodingError, NotOnGroupError)):
            decode_bit_proof(pp.group, bytes(data))


class TestCoinTranscriptFastForward:
    """Replaying a coin chunk through the transcript without verifying it
    must land on exactly the state verification would have left — it is
    what lets a shard skip chunks it does not own."""

    CONTEXT = b"fast-forward-test"

    @pytest.fixture(scope="class")
    def params(self):
        from repro.core.params import setup

        return setup(1.0, 2**-10, num_provers=2, group="p64-sim", nb_override=64)

    def _chunk_frames(self, params, chunks=2, rows=8):
        from repro.core.prover import Prover

        prover = Prover("prover-0", params, SeededRNG("chunked"))
        prover.begin_coin_stream(self.CONTEXT)
        frames = []
        for _ in range(chunks):
            frames.append(encode_message(prover.commit_coin_chunk(rows)))
            prover.absorb_public_bits([[0]] * rows)
        return frames

    def _transcript(self, params):
        from repro.core.prover import coin_transcript

        return coin_transcript(params, "prover-0", self.CONTEXT)

    def test_advance_equals_verify_then_continue(self, params):
        """The byte-level fast-forward (no element decoding) reaches the
        state verifying the decoded chunk leaves."""
        frame = self._chunk_frames(params)[0]
        first = decode_message(params.group, frame)
        advanced = self._transcript(params)
        advance_coin_transcript_frame(params, advanced, frame)
        verified = self._transcript(params)
        for c_row, p_row in zip(first.commitments, first.proofs):
            for commitment, proof in zip(c_row, p_row):
                verify_bit(params.pedersen, commitment, proof, verified)
        assert advanced.challenge_bytes("probe", 16) == verified.challenge_bytes(
            "probe", 16
        )

    def test_undecodable_prior_chunk_is_rejected_not_raised(self, params):
        """A structurally broken earlier chunk is an ``EncodingError`` at
        the codec and a clean ``False`` from the verifier that skips over
        it — never a crash of whoever is fast-forwarding."""
        from repro.core.verifier import PublicVerifier

        broken = self._chunk_frames(params)[0][:-40]
        with pytest.raises(EncodingError):
            advance_coin_transcript_frame(params, self._transcript(params), broken)
        verifier = PublicVerifier(params, SeededRNG("v"))
        verifier.begin_coin_stream("prover-0", self.CONTEXT)
        assert not verifier.skip_coin_chunk("prover-0", broken, 8)


class TestNonCanonicalScalarFence:
    """Fence, not fix (ROADMAP aim 3: pin exactly what is guaranteed).

    ``decode_bit_proof`` reads scalars with ``int.from_bytes`` and never
    compares them with the group order, so a scalar field holding
    ``v + q`` decodes, verifies (``h^(v+q) = h^v``) and re-encodes to the
    *canonical* bytes — not the bytes that were received.  A received
    frame is therefore not a sound seed for the encode cache (ROADMAP
    item 1(a)).  Rejecting ``>= q`` at decode would move a tampered
    prover frame from a ``BAD_COIN_PROOF`` verdict to an abort at
    ``read_reply``; that belongs to a versioned wire bump.  When it
    lands, this test flips to ``pytest.raises(EncodingError)``.
    """

    def test_v0_plus_q_decodes_verifies_and_reencodes_canonically(self, pedersen128):
        from repro.utils.encoding import (
            decode_length_prefixed,
            encode_length_prefixed,
            int_to_bytes,
        )

        group, q = pedersen128.group, pedersen128.q
        rng = SeededRNG("non-canonical")
        c, o = pedersen128.commit_fresh(1, rng)
        proof = prove_bit(pedersen128, c, o, Transcript("t"), rng)
        canonical = encode_bit_proof(proof)

        parts = decode_length_prefixed(canonical)
        assert len(parts[5]) == group.scalar_bytes == 16
        assert proof.v0 + q < 1 << 128  # the alias fits the fixed-width field
        parts[5] = int_to_bytes(proof.v0 + q, group.scalar_bytes)
        received = encode_length_prefixed(*parts)
        assert received != canonical and len(received) == len(canonical)

        restored = decode_bit_proof(group, received)
        assert restored.v0 == proof.v0 + q
        verify_bit(pedersen128, c, restored, Transcript("t"))
        assert encode_bit_proof(restored) == canonical
