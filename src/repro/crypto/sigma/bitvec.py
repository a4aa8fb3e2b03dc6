"""Bit-vector proofs: every coordinate of a committed vector is a bit.

This is the validity language of the bounded-sum extension: a client
commits to the k-bit *decomposition* of its value, c_j = Com(x_j, r_j),
and proves each x_j ∈ {0, 1} with the Σ-OR proof — a classic
commit-and-prove range proof.  The value commitment is then derived
homomorphically by any observer as Π_j c_j^{2^j} = Com(Σ 2^j x_j, Σ 2^j r_j),
so a valid decomposition certifies x ∈ [0, 2^k).

Unlike :mod:`repro.crypto.sigma.onehot` there is *no* coordinate-sum
equation — the coordinates are independent bits.  The proofs share one
transcript (parallel composition, as for the one-hot proof) with the
vector length bound in first, so a k-bit proof can never verify as a
k'-bit one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma.or_bit import BitProof, prove_bits, verify_bit
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import RNG

__all__ = ["BitVectorProof", "prove_bit_vector", "verify_bit_vector"]


@dataclass(frozen=True)
class BitVectorProof:
    """Per-coordinate Σ-OR proofs for a committed bit vector."""

    bit_proofs: tuple[BitProof, ...]

    @property
    def dimension(self) -> int:
        return len(self.bit_proofs)


def _bind_dimension(transcript: Transcript, dimension: int) -> None:
    transcript.append_int("bitvec-dimension", dimension)


def prove_bit_vector(
    params: PedersenParams,
    commitments: list[Commitment],
    openings: list[Opening],
    transcript: Transcript,
    rng: RNG | None = None,
) -> BitVectorProof:
    """Prove every committed coordinate is a bit (shared transcript)."""
    if not commitments:
        raise ParameterError("bit vector must have at least one coordinate")
    if len(commitments) != len(openings):
        raise ParameterError("commitments and openings length mismatch")
    _bind_dimension(transcript, len(commitments))
    return BitVectorProof(
        tuple(prove_bits(params, commitments, openings, transcript, rng))
    )


def verify_bit_vector(
    params: PedersenParams,
    commitments: list[Commitment],
    proof: BitVectorProof,
    transcript: Transcript,
) -> None:
    """Verify a bit-vector proof; raises :class:`ProofRejected` on failure."""
    if len(commitments) != proof.dimension:
        raise ProofRejected("proof dimension does not match commitments")
    _bind_dimension(transcript, len(commitments))
    for commitment, bit_proof in zip(commitments, proof.bit_proofs):
        verify_bit(params, commitment, bit_proof, transcript)
