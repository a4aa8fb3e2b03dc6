"""The CDS94 Σ-OR bit proof — the core verification gadget of ΠBin."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import setup
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Opening
from repro.crypto.serialization import encode_bit_proof
from repro.crypto.sigma.or_bit import (
    BitProof,
    branch_statements,
    prove_bit,
    prove_bits,
    simulate_bit_transcript,
    verify_bit,
    verify_bits,
)
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import SeededRNG


class TestCompleteness:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_honest_proof_verifies(self, pedersen64, bit):
        rng = SeededRNG(f"c{bit}")
        c, o = pedersen64.commit_fresh(bit, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        verify_bit(pedersen64, c, proof, Transcript("t"))

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20)
    def test_many_randomness_values(self, pedersen64, seed):
        rng = SeededRNG(f"r{seed}")
        bit = seed & 1
        c, o = pedersen64.commit_fresh(bit, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        verify_bit(pedersen64, c, proof, Transcript("t"))

    def test_batch_roundtrip(self, pedersen64):
        rng = SeededRNG("batch")
        bits = [rng.coin() for _ in range(20)]
        cs, os_ = pedersen64.commit_vector(bits, rng)
        proofs = prove_bits(pedersen64, cs, os_, Transcript("b"), rng)
        verify_bits(pedersen64, cs, proofs, Transcript("b"))

    def test_challenge_split_verified(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        assert (proof.e0 + proof.e1) % pedersen64.q == Transcript_challenge(pedersen64, c, proof)


def Transcript_challenge(pedersen, commitment, proof):
    """Recompute the FS challenge the verifier derives."""
    t = Transcript("t")
    t.append_bytes("pp", pedersen.transcript_bytes())
    t.append_element("bit-commitment", commitment.element)
    t.append_element("d0", proof.d0)
    t.append_element("d1", proof.d1)
    return t.challenge_scalar("or-challenge", pedersen.q)


class TestWitnessValidation:
    @pytest.mark.parametrize("value", [2, 3, 17, -1])
    def test_non_bit_witness_refused(self, pedersen64, rng, value):
        c, o = pedersen64.commit_fresh(value, rng)
        with pytest.raises(ParameterError):
            prove_bit(pedersen64, c, o, Transcript("t"), rng)

    def test_mismatched_opening_refused(self, pedersen64, rng):
        c, _ = pedersen64.commit_fresh(0, rng)
        with pytest.raises(ParameterError):
            prove_bit(pedersen64, c, Opening(0, 12345), Transcript("t"), rng)


class TestSoundness:
    def test_proof_bound_to_commitment(self, pedersen64, rng):
        c1, o1 = pedersen64.commit_fresh(0, rng)
        c2, _ = pedersen64.commit_fresh(1, rng)
        proof = prove_bit(pedersen64, c1, o1, Transcript("t"), rng)
        with pytest.raises(ProofRejected):
            verify_bit(pedersen64, c2, proof, Transcript("t"))

    def test_proof_bound_to_transcript_domain(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(1, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t1"), rng)
        with pytest.raises(ProofRejected):
            verify_bit(pedersen64, c, proof, Transcript("t2"))

    @pytest.mark.parametrize("field", ["e0", "e1", "v0", "v1"])
    def test_tampered_scalar_rejected(self, pedersen64, rng, field):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        tampered = BitProof(
            proof.d0,
            proof.d1,
            (proof.e0 + (field == "e0")) % pedersen64.q,
            (proof.e1 + (field == "e1")) % pedersen64.q,
            (proof.v0 + (field == "v0")) % pedersen64.q,
            (proof.v1 + (field == "v1")) % pedersen64.q,
        )
        with pytest.raises(ProofRejected):
            verify_bit(pedersen64, c, tampered, Transcript("t"))

    def test_swapped_announcements_rejected(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        swapped = BitProof(proof.d1, proof.d0, proof.e0, proof.e1, proof.v0, proof.v1)
        with pytest.raises(ProofRejected):
            verify_bit(pedersen64, c, swapped, Transcript("t"))

    def test_simulated_proof_fails_fs_verification(self, pedersen64, rng):
        """A simulator-made proof (self-chosen challenge) does not pass the
        Fiat-Shamir verifier — the challenge will not match the hash."""
        c, _ = pedersen64.commit_fresh(5, rng)  # not even a bit
        fake = simulate_bit_transcript(pedersen64, c, 123456, rng)
        with pytest.raises(ProofRejected):
            verify_bit(pedersen64, c, fake, Transcript("t"))

    def test_batch_length_mismatch(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        with pytest.raises(ProofRejected):
            verify_bits(pedersen64, [c, c], [proof], Transcript("t"))

    def test_batch_order_is_bound(self, pedersen64):
        """Reordering proofs within a batch breaks verification (shared
        transcript chains the challenges)."""
        rng = SeededRNG("ord")
        cs, os_ = pedersen64.commit_vector([0, 1], rng)
        proofs = prove_bits(pedersen64, cs, os_, Transcript("b"), rng)
        with pytest.raises(ProofRejected):
            verify_bits(pedersen64, [cs[1], cs[0]], [proofs[1], proofs[0]], Transcript("b"))


class TestZeroKnowledge:
    def test_branches_indistinguishable_structurally(self, pedersen64):
        """Proofs for x=0 and x=1 have identical shapes and marginals;
        here we check a necessary condition: all six fields are valid
        group/field elements regardless of the witness bit."""
        rng = SeededRNG("zk")
        for bit in (0, 1):
            c, o = pedersen64.commit_fresh(bit, rng)
            proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
            for scalar in (proof.e0, proof.e1, proof.v0, proof.v1):
                assert 0 <= scalar < pedersen64.q

    def test_simulator_accepts_for_given_challenge(self, pedersen64, rng):
        """Interactive HVZK: for any fixed challenge the witness-free
        simulator produces a transcript satisfying both verification
        equations and the challenge split."""
        c, _ = pedersen64.commit_fresh(1, rng)
        e = 987654321 % pedersen64.q
        proof = simulate_bit_transcript(pedersen64, c, e, rng)
        assert (proof.e0 + proof.e1) % pedersen64.q == e
        t0, t1 = branch_statements(pedersen64, c)
        assert pedersen64.h ** proof.v0 == proof.d0 * (t0 ** proof.e0)
        assert pedersen64.h ** proof.v1 == proof.d1 * (t1 ** proof.e1)

    def test_simulator_works_for_any_commitment(self, pedersen64, rng):
        """Perfect hiding: even a commitment to 42 has an accepting
        interactive transcript — which is why soundness needs the
        challenge to be unpredictable (Fiat-Shamir)."""
        c, _ = pedersen64.commit_fresh(42, rng)
        proof = simulate_bit_transcript(pedersen64, c, 7, rng)
        t0, t1 = branch_statements(pedersen64, c)
        assert pedersen64.h ** proof.v0 == proof.d0 * (t0 ** proof.e0)
        assert pedersen64.h ** proof.v1 == proof.d1 * (t1 ** proof.e1)


def reference_prove_bit(params, commitment, opening, transcript, rng):
    """The textbook CDS94 prover, kept as the oracle for the production one.

    It simulates the false branch the way a party *without* the witness
    would — ``d_sim = h^v · T_sim^(−e)``, one variable-base power on the
    branch statement — which is what :func:`prove_bit` did before it used
    the witness to compute the same element from fixed bases only.
    """
    q = params.q
    bit = opening.value % q
    sim = 1 - bit
    e_sim = rng.field_element(q)
    v_sim = rng.field_element(q)
    t_sim = branch_statements(params, commitment)[sim]
    d_sim = params.pow_h(v_sim) * (t_sim ** ((-e_sim) % q))
    b = rng.field_element(q)
    d_real = params.pow_h(b)
    d0, d1 = (d_sim, d_real) if bit else (d_real, d_sim)
    transcript.append_bytes("pp", params.transcript_bytes())
    transcript.append_element("bit-commitment", commitment.element)
    transcript.append_element("d0", d0)
    transcript.append_element("d1", d1)
    e_real = (transcript.challenge_scalar("or-challenge", q) - e_sim) % q
    v_real = (b + e_real * opening.randomness) % q
    if bit:
        return BitProof(d0, d1, e_sim, e_real, v_sim, v_real)
    return BitProof(d0, d1, e_real, e_sim, v_real, v_sim)


class TestWitnessAwareAnnouncement:
    """d_sim from the witness, Com((sim−x)·e, v − r·e), is the element the
    witness-less formula gives — so proofs, transcripts and releases are
    byte-for-byte what they were."""

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize(
        "name", ["p64-sim", "p128-sim", "p256-sim", "ristretto255", "ristretto255-pure"]
    )
    def test_simulated_announcement_matches_reference_formula(self, name, bit, group_for):
        params = setup(1.0, 2**-10, group=group_for(name), nb_override=32).pedersen
        q = params.q
        c, o = params.commit_fresh(bit, SeededRNG(f"coin-{bit}"))
        proof = prove_bit(params, c, o, Transcript("t"), SeededRNG("prover"))

        sim = 1 - bit
        e_sim, v_sim = ((proof.e0, proof.v0), (proof.e1, proof.v1))[sim]
        d_sim = (proof.d0, proof.d1)[sim]
        t_sim = branch_statements(params, c)[sim]
        expected = params.pow_h(v_sim) * (t_sim ** ((-e_sim) % q))
        assert d_sim == expected
        assert d_sim.to_bytes() == expected.to_bytes()

        reference = reference_prove_bit(params, c, o, Transcript("t"), SeededRNG("prover"))
        assert encode_bit_proof(proof) == encode_bit_proof(reference)
        verify_bit(params, c, proof, Transcript("t"))


def reference_verify_bit(params, commitment, proof, transcript):
    """The verifier as Figures 5/6 write it — two independent powers of the
    branch statements ``c`` and ``c/g`` — kept as the oracle for the
    shared-chain :func:`verify_bit`: same verdicts, same messages."""
    q = params.q
    transcript.append_bytes("pp", params.transcript_bytes())
    transcript.append_element("bit-commitment", commitment.element)
    transcript.append_element("d0", proof.d0)
    transcript.append_element("d1", proof.d1)
    e = transcript.challenge_scalar("or-challenge", q)
    if (proof.e0 + proof.e1) % q != e:
        raise ProofRejected("challenge split e0 + e1 != e")
    t0, t1 = branch_statements(params, commitment)
    if params.h ** proof.v0 != proof.d0 * (t0 ** proof.e0):
        raise ProofRejected("branch-0 verification equation failed")
    if params.h ** proof.v1 != proof.d1 * (t1 ** proof.e1):
        raise ProofRejected("branch-1 verification equation failed")


def _verdict(verify, params, commitment, proof):
    """(message or None, transcript fingerprint) of one verification."""
    transcript = Transcript("t")
    try:
        verify(params, commitment, proof, transcript)
        message = None
    except ProofRejected as exc:
        message = str(exc)
    return message, transcript.challenge_bytes("probe", 32)


SPLIT = "challenge split e0 + e1 != e"
BRANCH0 = "branch-0 verification equation failed"
BRANCH1 = "branch-1 verification equation failed"


@pytest.mark.parametrize("name", ["ristretto255", "p64-sim"])
class TestExactVerification:
    """Sharing the squaring chain changed no verdict and no message: audit
    notes embed the text and ``benchmarks/e2e/golden.json`` pins their
    digest."""

    @pytest.fixture()
    def params(self, name):
        return setup(1.0, 2**-10, group=name, nb_override=32).pedersen

    # One field perturbed at a time.  An announcement or the commitment
    # moves the Fiat–Shamir challenge; a response breaks its own equation;
    # shifting the split (e0+1, e1−1) keeps the challenge and breaks both
    # equations, of which branch 0 is reported.
    TAMPERS = {
        "d0": (lambda p, q, g: {"d0": p.d0 * g}, SPLIT),
        "d1": (lambda p, q, g: {"d1": p.d1 * g}, SPLIT),
        "e0": (lambda p, q, g: {"e0": (p.e0 + 1) % q}, SPLIT),
        "e1": (lambda p, q, g: {"e1": (p.e1 + 1) % q}, SPLIT),
        "v0": (lambda p, q, g: {"v0": (p.v0 + 1) % q}, BRANCH0),
        "v1": (lambda p, q, g: {"v1": (p.v1 + 1) % q}, BRANCH1),
        "split": (lambda p, q, g: {"e0": (p.e0 + 1) % q, "e1": (p.e1 - 1) % q}, BRANCH0),
    }

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("field", sorted(TAMPERS))
    def test_tampered_field_rejected_with_the_reference_message(self, params, bit, field):
        from dataclasses import replace

        rng = SeededRNG(f"tamper-{bit}")
        c, o = params.commit_fresh(bit, rng)
        proof = prove_bit(params, c, o, Transcript("t"), rng)
        assert _verdict(verify_bit, params, c, proof)[0] is None
        tamper, expected = self.TAMPERS[field]
        forged = replace(proof, **tamper(proof, params.q, params.g))
        got = _verdict(verify_bit, params, c, forged)
        assert got == _verdict(reference_verify_bit, params, c, forged)
        assert got[0] == expected

    @pytest.mark.parametrize("bit", [0, 1])
    def test_tampered_commitment_rejected_with_the_reference_message(self, params, bit):
        rng = SeededRNG(f"tamper-c-{bit}")
        c, o = params.commit_fresh(bit, rng)
        proof = prove_bit(params, c, o, Transcript("t"), rng)
        other = params.commit(bit, o.randomness + 1)
        got = _verdict(verify_bit, params, other, proof)
        assert got == _verdict(reference_verify_bit, params, other, proof)
        assert got[0] == SPLIT

    def test_unreduced_scalars_verify_as_their_residues(self, params):
        """Scalars ≥ q (or negative) are read mod q, as ``**`` reads them."""
        from dataclasses import replace

        rng = SeededRNG("unreduced")
        q = params.q
        c, o = params.commit_fresh(1, rng)
        proof = prove_bit(params, c, o, Transcript("t"), rng)
        shifted = replace(
            proof, e0=proof.e0 + q, e1=proof.e1 - q, v0=proof.v0 + 2 * q, v1=proof.v1 - q
        )
        assert _verdict(verify_bit, params, c, shifted)[0] is None
        assert _verdict(reference_verify_bit, params, c, shifted)[0] is None
        broken = replace(shifted, v1=shifted.v1 + 1)
        assert _verdict(verify_bit, params, c, broken)[0] == BRANCH1

    @pytest.mark.parametrize("value", [0, 1])
    def test_degenerate_commitments(self, params, value):
        """c = Com(0, 0) = identity and c = Com(1, 0) = g make one branch
        statement the identity; honest, forged and simulated proofs for
        them get the reference verdicts."""
        from dataclasses import replace

        c = params.commit(value, 0)
        assert c.element == (params.g if value else params.group.identity())
        rng = SeededRNG(f"degenerate-{value}")
        honest = prove_bit(params, c, Opening(value, 0), Transcript("t"), rng)
        simulated = simulate_bit_transcript(params, c, 99, rng)
        for proof, expected in (
            (honest, None),
            (replace(honest, v0=(honest.v0 + 1) % params.q), BRANCH0),
            (replace(honest, v1=(honest.v1 + 1) % params.q), BRANCH1),
            (simulated, SPLIT),
        ):
            got = _verdict(verify_bit, params, c, proof)
            assert got == _verdict(reference_verify_bit, params, c, proof)
            assert got[0] == expected

    def test_exact_verification_draws_nothing(self, params, monkeypatch):
        """No weight, no randomness: the auditor's RNG is public, so the
        exact path must never reach for one."""
        import repro.utils.rng as rng_module

        rng = SeededRNG("no-draws")
        c, o = params.commit_fresh(0, rng)
        proof = prove_bit(params, c, o, Transcript("t"), rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("exact verification drew randomness")

        monkeypatch.setattr(rng_module.SystemRNG, "random_bytes", forbidden)
        monkeypatch.setattr(rng_module.SeededRNG, "random_bytes", forbidden)
        verify_bit(params, c, proof, Transcript("t"))


def _probe(transcript, rng):
    """Fingerprint of where a transcript and an RNG stand."""
    return transcript.challenge_bytes("probe", 32), rng.random_bytes(16)


class TestBatchedProving:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_batch_equals_sequential_proofs(self, pedersen64, n):
        setup_rng = SeededRNG(f"batch-{n}")
        bits = [setup_rng.coin() for _ in range(n)]
        cs, os_ = pedersen64.commit_vector(bits, setup_rng)

        runs = []
        for prove_one in (prove_bit, reference_prove_bit):
            transcript, rng = Transcript("b"), SeededRNG("prover")
            proofs = [prove_one(pedersen64, c, o, transcript, rng) for c, o in zip(cs, os_)]
            runs.append(([encode_bit_proof(p) for p in proofs], _probe(transcript, rng)))
        transcript, rng = Transcript("b"), SeededRNG("prover")
        batched = prove_bits(pedersen64, cs, os_, transcript, rng)
        runs.append(([encode_bit_proof(p) for p in batched], _probe(transcript, rng)))

        assert runs[0] == runs[1] == runs[2]
        verify_bits(pedersen64, cs, batched, Transcript("b"))

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("fault", ["non-bit", "mismatch"])
    def test_bad_witness_anywhere_refuses_whole_batch(self, pedersen64, position, fault):
        setup_rng = SeededRNG("bad-witness")
        cs, os_ = pedersen64.commit_vector([0, 1, 1, 0, 1, 0, 0], setup_rng)
        if fault == "non-bit":
            cs[position], os_[position] = pedersen64.commit_fresh(2, setup_rng)
        else:
            os_[position] = Opening(os_[position].value, os_[position].randomness + 1)

        transcript, rng = Transcript("b"), SeededRNG("prover")
        with pytest.raises(ParameterError):
            prove_bits(pedersen64, cs, os_, transcript, rng)
        # No proof was emitted: nothing absorbed, nothing drawn.
        assert _probe(transcript, rng) == _probe(Transcript("b"), SeededRNG("prover"))
