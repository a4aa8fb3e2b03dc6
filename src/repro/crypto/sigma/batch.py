"""Batch verification of Σ-proofs via random linear combination.

Verifying nb bit proofs one at a time (Table 1's Σ-verification column)
costs, per proof, three fixed-base comb walks and two variable-base powers
of the commitment that share one squaring chain — see
:mod:`repro.crypto.sigma.or_bit`.  Because every individual check is a product
equation in the group, a verifier can instead check one random linear
combination: for each proof's two branch equations

    d₀ · c^{e₀} · h^{-v₀} == 1        d₁ · c^{e₁} · g^{-e₁} · h^{-v₁} == 1

draw uniform 128-bit weights γ₀, γ₁ and accept iff the γ-weighted product
of *all* equations is the identity.  If any single equation fails, the
combined equation holds with probability at most 2⁻¹²⁸ over the γ's.
Because every equation shares the generators, the g and h terms fold into
one exponent each, leaving 3 bases per proof plus 2 global ones; the
combined product is a single multi-exponentiation which
:func:`repro.crypto.multiexp.multi_exponentiation` dispatches to
Pippenger's bucket method at these sizes.

:class:`SigmaBatch` is the accumulator behind all of this, and it is
*cross-message*: the public verifier folds every prover's nb coin proofs
and every client's validity proof into one accumulator, so the entire
protocol run costs one multiexp instead of K·nb + n·M sequential
checks.  Each message keeps its own Fiat–Shamir transcript —
transcript evolution is identical to the sequential verifier's, so batch
and sequential verification accept exactly the same proofs (up to the
2⁻¹²⁸ soundness slack).  When a batch rejects, callers fall back to the
sequential path to pinpoint the offending proof (see
``PublicVerifier``); ablation benchmarks
(`benchmarks/bench_ablation_batching.py`) quantify the speedup.

Note the e₀+e₁ == e split *must still be checked per proof* (it binds the
simulated branch to the Fiat–Shamir challenge); that part is cheap field
arithmetic and happens during accumulation.
"""

from __future__ import annotations

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.group import GroupElement
from repro.crypto.pedersen import Commitment, PedersenParams
from repro.crypto.sigma.bitvec import BitVectorProof, _bind_dimension
from repro.crypto.sigma.onehot import OneHotProof
from repro.crypto.sigma.or_bit import BitProof, _bind, _challenge
from repro.errors import ProofRejected
from repro.utils.rng import RNG, default_rng

__all__ = ["SigmaBatch", "batch_verify_bits", "batch_verify_one_hot", "GAMMA_BITS"]

# Width of the random linear combination weights: the probability a batch
# with at least one false equation still verifies is at most 2^-GAMMA_BITS.
GAMMA_BITS = 128


class SigmaBatch:
    """Accumulates γ-weighted Σ-proof equations for one combined check.

    Add any mix of bit proofs and one-hot proofs (each bound to its own
    transcript), then call :meth:`verify` once.  ``add_*`` raises
    :class:`ProofRejected` immediately for per-proof structural failures
    (length mismatch, bad challenge split), so by the time :meth:`verify`
    runs only the group equations are left to check.

    **Soundness requires the γ weights be unpredictable to whoever
    authored the proofs.**  A verifier whose RNG is public or replayable
    (a bulletin-board auditor, a deterministic third-party replica) must
    use the sequential path instead — with predictable γ's an adversary
    can tamper two equations so their errors cancel in the weighted
    product (``PublicVerifier(..., batch=False)`` exists for exactly
    this).
    """

    def __init__(self, params: PedersenParams, rng: RNG | None = None) -> None:
        self.params = params
        self.rng = default_rng(rng)
        self._bases: list[GroupElement] = []
        self._exponents: list[int] = []
        # The folded g and h exponents, summed unreduced: only
        # :meth:`verify` reads them, and reduces them mod q once.
        self._g_exp = 0
        self._h_exp = 0

    def add_bit_proof(
        self, commitment: Commitment, proof: BitProof, transcript: Transcript
    ) -> None:
        """Fold one Σ-OR bit proof into the combined equation.

        Evolves ``transcript`` exactly as :func:`verify_bit` does and
        checks the challenge split; only the two branch equations are
        deferred to the batch.
        """
        params = self.params
        q = params.q
        d0, d1, e0, e1 = proof.d0, proof.d1, proof.e0, proof.e1
        _bind(transcript, params, commitment)
        transcript.append_element("d0", d0)
        transcript.append_element("d1", d1)
        e = _challenge(transcript, params)
        if (e0 + e1) % q != e:
            raise ProofRejected("challenge split e0 + e1 != e")

        randbits = self.rng.randbits
        gamma0 = randbits(GAMMA_BITS)
        gamma1 = randbits(GAMMA_BITS)
        # branch 0: d0 · c^{e0} · h^{-v0} == 1, weighted by γ0;
        # branch 1: d1 · c^{e1} · g^{-e1} · h^{-v1} == 1, weighted by γ1.
        # The c terms of both branches merge, and the g/h terms join the
        # accumulator-wide folded generator exponents.
        self._bases += (d0, d1, commitment.element)
        self._exponents += (gamma0, gamma1, (gamma0 * e0 + gamma1 * e1) % q)
        self._g_exp -= gamma1 * e1
        self._h_exp -= gamma0 * proof.v0 + gamma1 * proof.v1

    def add_bit_proofs(
        self,
        commitments: list[Commitment],
        proofs: list[BitProof],
        transcript: Transcript,
    ) -> None:
        """Fold a whole :func:`prove_bits` batch (shared transcript)."""
        if len(commitments) != len(proofs):
            raise ProofRejected(
                "number of proofs does not match number of commitments"
            )
        for commitment, proof in zip(commitments, proofs):
            self.add_bit_proof(commitment, proof, transcript)

    def add_one_hot(
        self,
        commitments: list[Commitment],
        proof: OneHotProof,
        transcript: Transcript,
    ) -> None:
        """Fold a one-hot proof: per-coordinate bit proofs + sum check.

        The sum check Π_j c_j == g·h^r becomes the γ-weighted equation
        (Π_j c_j) · g^{-1} · h^{-r} == 1 in the same combined product.
        """
        if len(commitments) != proof.dimension:
            raise ProofRejected("proof dimension does not match commitments")
        transcript.append_int("dimension", len(commitments))
        for commitment, bit_proof in zip(commitments, proof.bit_proofs):
            self.add_bit_proof(commitment, bit_proof, transcript)
        gamma = self.rng.randbits(GAMMA_BITS)
        # Fold Π_j c_j with plain multiplications first — the coordinates
        # share one γ, so giving each its own multiexp term would cost
        # ~bits/c multiplications apiece instead of one.
        self._bases.append(self.params.group.product(c.element for c in commitments))
        self._exponents.append(gamma)
        self._g_exp -= gamma
        self._h_exp -= gamma * proof.randomness_sum

    def add_bit_vector(
        self,
        commitments: list[Commitment],
        proof: "BitVectorProof",
        transcript: Transcript,
    ) -> None:
        """Fold a bit-vector (range-decomposition) proof: M independent
        bit proofs, no coordinate-sum equation."""
        if len(commitments) != proof.dimension:
            raise ProofRejected("proof dimension does not match commitments")
        _bind_dimension(transcript, len(commitments))
        for commitment, bit_proof in zip(commitments, proof.bit_proofs):
            self.add_bit_proof(commitment, bit_proof, transcript)

    def merge(self, other: "SigmaBatch") -> None:
        """Absorb another accumulator (used for per-message staging)."""
        if other.params is not self.params:
            raise ProofRejected("cannot merge batches over different parameters")
        self._bases.extend(other._bases)
        self._exponents.extend(other._exponents)
        self._g_exp += other._g_exp
        self._h_exp += other._h_exp

    def verify(self) -> None:
        """One multi-exponentiation; raises :class:`ProofRejected` on failure.

        The folded generator terms ``g^{Σ…} · h^{Σ…}`` are exactly a
        Pedersen commitment, so they go through the cached fixed-base comb
        tables (:meth:`PedersenParams.commit`) instead of joining the
        variable-base multiexp.
        """
        params = self.params
        combined = params.group.multi_scale(self._bases, self._exponents)
        q = params.q
        combined = combined * params.commit(self._g_exp % q, self._h_exp % q).element
        if not combined.is_identity():
            raise ProofRejected("batched Σ-proof verification failed")


def batch_verify_bits(
    params: PedersenParams,
    commitments: list[Commitment],
    proofs: list[BitProof],
    transcript: Transcript,
    rng: RNG | None = None,
) -> None:
    """Verify many bit proofs with one multi-exponentiation.

    Transcript evolution is identical to :func:`verify_bits`, so a batch
    verifier and a sequential verifier accept exactly the same proofs
    (up to the 2^-128 soundness slack of the random combination).
    Raises :class:`ProofRejected` if the batch fails.
    """
    batch = SigmaBatch(params, rng)
    batch.add_bit_proofs(commitments, proofs, transcript)
    batch.verify()


def batch_verify_one_hot(
    params: PedersenParams,
    commitments: list[Commitment],
    proof: OneHotProof,
    transcript: Transcript,
    rng: RNG | None = None,
) -> None:
    """Batched counterpart of :func:`verify_one_hot` (one multiexp).

    Folds the M per-coordinate OR proofs and the coordinate-sum equation
    into one random linear combination; transcript evolution matches the
    sequential verifier.  Raises :class:`ProofRejected` on failure.
    """
    batch = SigmaBatch(params, rng)
    batch.add_one_hot(commitments, proof, transcript)
    batch.verify()
