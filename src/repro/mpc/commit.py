"""Hash-based commitments for Morra.

Algorithm 1 needs a commitment scheme but *not* a homomorphic one — the
values are opened in full during the reveal phase.  A hash commitment
``c = H(domain || m || r)`` with 256-bit randomness is

* binding under collision resistance of SHA-512/256, and
* hiding because r has 256 bits of entropy,

and it costs one hash per commit instead of two exponentiations, which is
why Table 1's Morra column is an order of magnitude cheaper per coin than
the Σ-proof columns.  (Pedersen would work too — the protocol layer only
needs ``commit``/``verify``.)
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.errors import CommitmentOpeningError, EncodingError
from repro.utils.encoding import encode_length_prefixed
from repro.utils.rng import RNG, default_rng

__all__ = ["HashCommitment", "HashCommitmentScheme"]

_RANDOMNESS_BYTES = 32


@dataclass(frozen=True)
class HashCommitment:
    """An opaque 32-byte commitment digest."""

    digest: bytes

    def to_bytes(self) -> bytes:
        return self.digest


class HashCommitmentScheme:
    """Commitments to integers via SHA-512/256 with explicit domain."""

    def __init__(self, domain: bytes = b"repro.morra.commit") -> None:
        self._domain = domain
        # The preimage is ``LP(domain, value, randomness)``; its first
        # part is the same for every commitment of this scheme.
        self._prefix = encode_length_prefixed(domain)

    @property
    def domain(self) -> bytes:
        """The domain-separation label; all committing parties must agree
        on it (remote provers receive it over the wire)."""
        return self._domain

    def _digest(self, value: int, randomness: bytes) -> bytes:
        # ``int_to_bytes(value)`` inlined: Morra commits and opens thousands
        # of values per release.
        if value < 0:
            raise EncodingError(f"cannot encode negative integer {value}")
        width = (value.bit_length() + 7) // 8 or 1
        payload = b"".join(
            (
                self._prefix,
                width.to_bytes(4, "big"),
                value.to_bytes(width, "big"),
                len(randomness).to_bytes(4, "big"),
                randomness,
            )
        )
        return hashlib.sha512(payload).digest()[:32]

    def commit(self, value: int, rng: RNG | None = None) -> tuple[HashCommitment, bytes]:
        """Commit to ``value``; returns (commitment, randomness)."""
        (commitment,), (randomness,) = self.commit_many([value], rng)
        return commitment, randomness

    def commit_many(
        self, values: list[int], rng: RNG | None = None
    ) -> tuple[list[HashCommitment], list[bytes]]:
        """Commit to each value in one pass: the randomness is drawn per
        value in order, exactly as repeated :meth:`commit` calls draw it."""
        random_bytes, digest = default_rng(rng).random_bytes, self._digest
        randomness = [random_bytes(_RANDOMNESS_BYTES) for _ in values]
        return [HashCommitment(digest(v, r)) for v, r in zip(values, randomness)], randomness

    def verify(self, commitment: HashCommitment, value: int, randomness: bytes) -> None:
        """Raise :class:`CommitmentOpeningError` unless the opening matches."""
        expected = self._digest(value, randomness)
        # Constant-time comparison: the commitment is public but there is
        # no reason to leak match length through timing.
        if not hmac.compare_digest(expected, commitment.digest):
            raise CommitmentOpeningError("hash commitment opening mismatch")

    def opens_to(self, commitment: HashCommitment, value: int, randomness: bytes) -> bool:
        return hmac.compare_digest(self._digest(value, randomness), commitment.digest)
