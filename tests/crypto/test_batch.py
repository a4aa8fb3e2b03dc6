"""Batched Σ-proof verification: equivalence with sequential checking."""

import pytest

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.sigma.batch import SigmaBatch, batch_verify_bits, batch_verify_one_hot
from repro.crypto.sigma.onehot import OneHotProof, prove_one_hot, verify_one_hot
from repro.crypto.sigma.or_bit import BitProof, prove_bits, verify_bits
from repro.errors import ProofRejected
from repro.utils.rng import SeededRNG


def make_batch(pedersen, n, seed="batch"):
    rng = SeededRNG(seed)
    bits = [rng.coin() for _ in range(n)]
    cs, os_ = pedersen.commit_vector(bits, rng)
    proofs = prove_bits(pedersen, cs, os_, Transcript("b"), rng)
    return cs, proofs, rng


class TestBatchVerification:
    def test_accepts_honest_batch(self, pedersen64):
        cs, proofs, rng = make_batch(pedersen64, 24)
        batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)

    def test_agrees_with_sequential(self, pedersen64):
        cs, proofs, rng = make_batch(pedersen64, 12, seed="agree")
        verify_bits(pedersen64, cs, proofs, Transcript("b"))
        batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)

    @pytest.mark.parametrize("position", [0, 5, 11])
    def test_single_bad_proof_fails_batch(self, pedersen64, position):
        cs, proofs, rng = make_batch(pedersen64, 12, seed=f"bad{position}")
        bad = proofs[position]
        proofs[position] = BitProof(
            bad.d0, bad.d1, bad.e0, bad.e1, (bad.v0 + 1) % pedersen64.q, bad.v1
        )
        with pytest.raises(ProofRejected):
            batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)

    def test_one_tampered_of_1000_rejected(self, pedersen64):
        """The RLC catches a single bad equation among a thousand proofs."""
        cs, proofs, rng = make_batch(pedersen64, 1000, seed="big")
        batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)
        victim = proofs[617]
        proofs[617] = BitProof(
            victim.d0,
            victim.d1,
            victim.e0,
            victim.e1,
            victim.v0,
            (victim.v1 + 1) % pedersen64.q,
        )
        with pytest.raises(ProofRejected):
            batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)

    def test_bad_challenge_split_fails(self, pedersen64):
        cs, proofs, rng = make_batch(pedersen64, 6, seed="split")
        p = proofs[2]
        proofs[2] = BitProof(p.d0, p.d1, (p.e0 + 1) % pedersen64.q, p.e1, p.v0, p.v1)
        with pytest.raises(ProofRejected):
            batch_verify_bits(pedersen64, cs, proofs, Transcript("b"), rng)

    def test_length_mismatch(self, pedersen64):
        cs, proofs, rng = make_batch(pedersen64, 4, seed="len")
        with pytest.raises(ProofRejected):
            batch_verify_bits(pedersen64, cs, proofs[:3], Transcript("b"), rng)

    def test_empty_batch(self, pedersen64, rng):
        batch_verify_bits(pedersen64, [], [], Transcript("b"), rng)


def make_one_hot(pedersen, dimension, hot=0, seed="oh"):
    rng = SeededRNG(seed)
    vector = [1 if m == hot else 0 for m in range(dimension)]
    cs, os_ = pedersen.commit_vector(vector, rng)
    proof = prove_one_hot(pedersen, cs, os_, Transcript("oh"), rng)
    return cs, proof, rng


class TestBatchOneHot:
    def test_accepts_honest_proof(self, pedersen64):
        cs, proof, rng = make_one_hot(pedersen64, 8, hot=3)
        verify_one_hot(pedersen64, cs, proof, Transcript("oh"))
        batch_verify_one_hot(pedersen64, cs, proof, Transcript("oh"), rng)

    def test_rejects_tampered_sum(self, pedersen64):
        cs, proof, rng = make_one_hot(pedersen64, 6)
        bad = OneHotProof(proof.bit_proofs, (proof.randomness_sum + 1) % pedersen64.q)
        with pytest.raises(ProofRejected):
            batch_verify_one_hot(pedersen64, cs, bad, Transcript("oh"), rng)

    def test_rejects_tampered_bit_proof(self, pedersen64):
        cs, proof, rng = make_one_hot(pedersen64, 6, hot=2)
        bit = proof.bit_proofs[4]
        tampered = list(proof.bit_proofs)
        tampered[4] = BitProof(
            bit.d0, bit.d1, bit.e0, bit.e1, (bit.v0 + 1) % pedersen64.q, bit.v1
        )
        bad = OneHotProof(tuple(tampered), proof.randomness_sum)
        with pytest.raises(ProofRejected):
            batch_verify_one_hot(pedersen64, cs, bad, Transcript("oh"), rng)

    def test_dimension_mismatch(self, pedersen64):
        cs, proof, rng = make_one_hot(pedersen64, 4)
        with pytest.raises(ProofRejected):
            batch_verify_one_hot(pedersen64, cs[:3], proof, Transcript("oh"), rng)


class TestSigmaBatchAccumulator:
    def test_cross_message_aggregation(self, pedersen64):
        """One accumulator covers many independently-transcripted messages."""
        batch = SigmaBatch(pedersen64, SeededRNG("agg"))
        for i in range(3):
            # Each message was proven over its own transcript; replay each
            # with a fresh transcript of the same domain.
            cs, proofs, _ = make_batch(pedersen64, 5, seed=f"msg{i}")
            batch.add_bit_proofs(cs, proofs, Transcript("b"))
        cs, proof, _ = make_one_hot(pedersen64, 4, hot=1, seed="aggoh")
        batch.add_one_hot(cs, proof, Transcript("oh"))
        batch.verify()

    def test_merge_matches_direct(self, pedersen64):
        cs, proofs, _ = make_batch(pedersen64, 8, seed="merge")
        combined = SigmaBatch(pedersen64, SeededRNG("m0"))
        sub = SigmaBatch(pedersen64, SeededRNG("m1"))
        sub.add_bit_proofs(cs[:4], proofs[:4], Transcript("b"))
        combined.merge(sub)
        # Continue the same transcript stream in a second staged batch.
        transcript = Transcript("b")
        sub2 = SigmaBatch(pedersen64, SeededRNG("m2"))
        for c, p in zip(cs[:4], proofs[:4]):
            sub2.add_bit_proof(c, p, transcript)
        combined2 = SigmaBatch(pedersen64, SeededRNG("m3"))
        combined2.merge(sub2)
        combined.verify()
        combined2.verify()

    def test_merge_rejects_foreign_params(self, pedersen64, pedersen128):
        batch = SigmaBatch(pedersen64, SeededRNG("f"))
        with pytest.raises(ProofRejected):
            batch.merge(SigmaBatch(pedersen128, SeededRNG("f")))

    def test_tainted_merge_fails_combined(self, pedersen64):
        combined = SigmaBatch(pedersen64, SeededRNG("t"))
        good_cs, good_proofs, _ = make_batch(pedersen64, 4, seed="good")
        combined.add_bit_proofs(good_cs, good_proofs, Transcript("b"))
        bad_cs, bad_proofs, _ = make_batch(pedersen64, 4, seed="evil")
        victim = bad_proofs[1]
        bad_proofs[1] = BitProof(
            victim.d0, victim.d1, victim.e0, victim.e1,
            (victim.v0 + 1) % pedersen64.q, victim.v1,
        )
        sub = SigmaBatch(pedersen64, SeededRNG("t2"))
        sub.add_bit_proofs(bad_cs, bad_proofs, Transcript("b"))
        combined.merge(sub)
        with pytest.raises(ProofRejected):
            combined.verify()

    def test_empty_accumulator_verifies(self, pedersen64):
        SigmaBatch(pedersen64, SeededRNG("e")).verify()
