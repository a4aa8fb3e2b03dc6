"""Proof that two Pedersen commitments open to the same value.

PoK{ (x, r₁, r₂) : c₁ = g^x h^{r₁} ∧ c₂ = g^x h^{r₂} }.

Equivalently a Schnorr proof of knowledge of r₁ - r₂ for the statement
c₁/c₂ = h^{r₁-r₂}; we implement that reduction directly.  A building
block for tying a commitment published inside ΠBin to one consumed by an
outer system such as PRIO, so both protocols talk about the same value;
nothing in the library calls it yet — :mod:`repro.core.composition`
commits to the outer aggregate itself instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma import schnorr_pok
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import RNG, default_rng

__all__ = ["EqualityProof", "prove_equal", "verify_equal"]


@dataclass(frozen=True)
class EqualityProof:
    """Schnorr proof on the quotient commitment."""

    proof: schnorr_pok.SchnorrProof


def prove_equal(
    params: PedersenParams,
    c1: Commitment,
    o1: Opening,
    c2: Commitment,
    o2: Opening,
    transcript: Transcript,
    rng: RNG | None = None,
) -> EqualityProof:
    """Prove c1 and c2 commit to the same value."""
    if o1.value % params.q != o2.value % params.q:
        raise ParameterError("openings commit to different values")
    if not params.opens_to(c1, o1) or not params.opens_to(c2, o2):
        raise ParameterError("opening does not match commitment")
    witness = (o1.randomness - o2.randomness) % params.q
    quotient = (c1 / c2).element
    transcript.append_bytes("pp", params.transcript_bytes())
    inner = schnorr_pok.prove_dlog(
        params.group, params.h, quotient, witness, transcript, default_rng(rng)
    )
    return EqualityProof(inner)


def verify_equal(
    params: PedersenParams,
    c1: Commitment,
    c2: Commitment,
    proof: EqualityProof,
    transcript: Transcript,
) -> None:
    """Verify an equality proof; raises :class:`ProofRejected`."""
    quotient = (c1 / c2).element
    transcript.append_bytes("pp", params.transcript_bytes())
    try:
        schnorr_pok.verify_dlog(params.group, params.h, quotient, proof.proof, transcript)
    except ProofRejected as exc:
        raise ProofRejected(f"equality proof rejected: {exc}") from exc
