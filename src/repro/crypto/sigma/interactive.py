"""Interactive Σ-OR sessions (the 3-move protocol, without Fiat–Shamir).

Appendix C notes that the Σ-protocols are zero-knowledge *without* a
random oracle: Maurer's result gives ZK for polynomial-sized challenge
spaces (with soundness error 1/|challenge space|, amplified by
repetition), and Damgård's trapdoor-commitment variant restores full
soundness at 4 rounds.  This module implements the first option:

* :class:`InteractiveBitProver` / :class:`InteractiveBitVerifier` — the
  live 3-move OR protocol of Figures 5/6, its moves exchanged by direct
  method calls,
* small-challenge mode with ``repetitions`` parallel runs: each run has
  soundness error 1/|C|, so t runs give |C|^-t (e.g. |C| = 2⁸, t = 8 ⇒
  2⁻⁶⁴) while remaining ZK against *arbitrary* verifiers for small |C|.

The FS variant in :mod:`repro.crypto.sigma.or_bit` stays the production
path (it is what the paper benchmarks); this module exists because the
interactive form is the object the security proofs actually reason about,
and the test-suite exercises cheating verifiers against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.group import GroupElement
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma.or_bit import BitProof, _announce, _respond, _failed_branch
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import RNG, default_rng

__all__ = [
    "Announcement",
    "InteractiveBitProver",
    "InteractiveBitVerifier",
    "run_interactive_bit_proof",
]


@dataclass(frozen=True)
class Announcement:
    """First move: the two branch announcements (d0, d1)."""

    d0: GroupElement
    d1: GroupElement


class InteractiveBitProver:
    """Prover side of one interactive OR session (possibly repeated)."""

    def __init__(
        self,
        params: PedersenParams,
        commitment: Commitment,
        opening: Opening,
        rng: RNG | None = None,
    ) -> None:
        bit = opening.value % params.q
        if bit not in (0, 1):
            raise ParameterError("witness is not a bit")
        if not params.opens_to(commitment, opening):
            raise ParameterError("opening does not match commitment")
        self.params = params
        self.commitment = commitment
        self.opening = opening
        self.rng = default_rng(rng)
        self._state: tuple | None = None

    def announce(self) -> Announcement:
        """Move 1: honest announcement on the real branch, simulated on
        the other (the challenge split happens in move 3)."""
        *state, d0, d1 = _announce(
            self.params, [self.commitment], [self.opening], self.rng
        )[0]
        self._state = tuple(state)
        return Announcement(d0, d1)

    def respond(self, challenge: int) -> tuple[int, int, int, int]:
        """Move 3: (e0, e1, v0, v1) with e0 + e1 == challenge mod q."""
        if self._state is None:
            raise ParameterError("respond() before announce()")
        state, self._state = self._state, None
        return _respond(self.params.q, self.opening, *state, challenge)


class InteractiveBitVerifier:
    """Verifier side; ``challenge_bits`` sets the challenge-space size.

    Small challenge spaces (Maurer) keep the protocol ZK against
    malicious verifiers without a random oracle, at soundness 2^-bits per
    repetition.
    """

    def __init__(
        self,
        params: PedersenParams,
        commitment: Commitment,
        *,
        challenge_bits: int | None = None,
        rng: RNG | None = None,
    ) -> None:
        self.params = params
        self.commitment = commitment
        self.challenge_bits = challenge_bits
        self.rng = default_rng(rng)
        self._announcement: Announcement | None = None
        self._challenge: int | None = None

    def challenge(self, announcement: Announcement) -> int:
        """Move 2: a uniform challenge from the configured space."""
        self._announcement = announcement
        if self.challenge_bits is None:
            self._challenge = self.rng.field_element(self.params.q)
        else:
            self._challenge = self.rng.randbits(self.challenge_bits) % self.params.q
        return self._challenge

    def check(self, response: tuple[int, int, int, int]) -> None:
        """Verify the final move; raises :class:`ProofRejected`."""
        if self._announcement is None or self._challenge is None:
            raise ParameterError("check() before challenge()")
        proof = self.as_proof(self._announcement, response)
        q = self.params.q
        if (proof.e0 + proof.e1) % q != self._challenge % q:
            raise ProofRejected("challenge split mismatch")
        failed = _failed_branch(self.params, self.commitment, proof)
        if failed is not None:
            raise ProofRejected(f"branch-{failed} equation failed")
        self._announcement = None
        self._challenge = None

    def as_proof(self, announcement: Announcement, response) -> BitProof:
        """Package an accepted interactive transcript as a BitProof record."""
        e0, e1, v0, v1 = response
        return BitProof(announcement.d0, announcement.d1, e0, e1, v0, v1)


def run_interactive_bit_proof(
    params: PedersenParams,
    commitment: Commitment,
    opening: Opening,
    *,
    repetitions: int = 1,
    challenge_bits: int | None = None,
    prover_rng: RNG | None = None,
    verifier_rng: RNG | None = None,
) -> list[BitProof]:
    """Run the full interactive protocol, optionally repeated in parallel.

    Returns the accepted transcripts; raises :class:`ProofRejected` if any
    repetition fails.  With ``challenge_bits = b`` the combined soundness
    error is 2^(-b·repetitions).
    """
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    prover_rng = default_rng(prover_rng)
    verifier_rng = default_rng(verifier_rng)
    transcripts: list[BitProof] = []
    for _ in range(repetitions):
        prover = InteractiveBitProver(params, commitment, opening, prover_rng)
        verifier = InteractiveBitVerifier(
            params, commitment, challenge_bits=challenge_bits, rng=verifier_rng
        )
        announcement = prover.announce()
        challenge = verifier.challenge(announcement)
        response = prover.respond(challenge)
        verifier.check(response)
        transcripts.append(verifier.as_proof(announcement, response))
    return transcripts
