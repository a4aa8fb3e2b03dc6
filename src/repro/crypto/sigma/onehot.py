"""One-hot proofs for M-dimensional client inputs.

For M-bin histograms the language of legal client inputs is

    L = { x ∈ {0,1}^M : ||x||₁ = 1 }          (Section 4.2)

Appendix C (final paragraph) gives the verification recipe implemented
here: the client sends a Σ-OR proof per coordinate (each committed
coordinate is a bit) plus the *sum of the commitment randomness*
r = Σ r_j; the verifier checks every OR proof and then that

    Π_j c_j == Com(1, r) == g·h^r

i.e. the coordinates sum to exactly one.  Revealing r leaks nothing about
which coordinate is hot: the product commitment always opens to 1 for a
legal input, and r is the only extra value revealed.

For M = 1 (single counting query) this degenerates to one OR proof plus a
trivial sum check, matching L = {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma.or_bit import BitProof, prove_bits, verify_bit
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import RNG

__all__ = ["OneHotProof", "prove_one_hot", "verify_one_hot"]


@dataclass(frozen=True)
class OneHotProof:
    """Per-coordinate bit proofs plus the summed randomness."""

    bit_proofs: tuple[BitProof, ...]
    randomness_sum: int

    @property
    def dimension(self) -> int:
        return len(self.bit_proofs)


def prove_one_hot(
    params: PedersenParams,
    commitments: list[Commitment],
    openings: list[Opening],
    transcript: Transcript,
    rng: RNG | None = None,
) -> OneHotProof:
    """Prove the committed vector is one-hot.

    Raises :class:`ParameterError` when the witness is not actually
    one-hot — an honest client cannot accidentally produce an invalid
    proof, and a dishonest one must forge (infeasible).
    """
    if len(commitments) != len(openings):
        raise ParameterError("commitments and openings length mismatch")
    if not commitments:
        raise ParameterError("dimension must be at least 1")
    total = sum(o.value for o in openings)
    if total % params.q != 1 or any(o.value % params.q not in (0, 1) for o in openings):
        raise ParameterError("witness vector is not one-hot")

    transcript.append_int("dimension", len(commitments))
    proofs = tuple(prove_bits(params, commitments, openings, transcript, rng))
    r_sum = sum(o.randomness for o in openings) % params.q
    return OneHotProof(proofs, r_sum)


def verify_one_hot(
    params: PedersenParams,
    commitments: list[Commitment],
    proof: OneHotProof,
    transcript: Transcript,
) -> None:
    """Verify a one-hot proof; raises :class:`ProofRejected` on failure."""
    if len(commitments) != proof.dimension:
        raise ProofRejected("proof dimension does not match commitments")
    transcript.append_int("dimension", len(commitments))
    for commitment, bit_proof in zip(commitments, proof.bit_proofs):
        verify_bit(params, commitment, bit_proof, transcript)
    product = params.product(commitments)
    expected = params.commit(1, proof.randomness_sum)
    if product.element != expected.element:
        raise ProofRejected("coordinate sum is not one (Π c_j != g·h^r)")
