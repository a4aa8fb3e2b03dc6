"""Pedersen commitments (Definition 2/3, equation (11)).

``Com(x, r) = g^x * h^r`` over a prime-order group in which the discrete
log of h base g is unknown.  The scheme is

* perfectly **hiding** — for any x, the commitment is uniform over the
  group as r varies, so even an unbounded verifier learns nothing (this is
  what makes the ZK side of verifiable DP *statistical* against the
  verifier while soundness is only computational; see Theorem 5.2), and
* computationally **binding** — opening one commitment two ways yields
  log_g(h) (Definition 9/11).  ``repro.analysis.separation`` demonstrates
  exactly this break given a discrete-log oracle.

The homomorphism ``Com(x1, r1) * Com(x2, r2) = Com(x1+x2, r1+r2)`` is what
lets the public verifier check the prover's aggregate on Line 13 of ΠBin
without seeing any opening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.crypto.group import Group, GroupElement
from repro.errors import CommitmentOpeningError, ParameterError
from repro.utils.rng import RNG, default_rng

__all__ = ["PedersenParams", "Commitment", "Opening"]


@dataclass(frozen=True)
class Opening:
    """An opening (x, r) of a Pedersen commitment.

    In the paper's notation these are the values a party reveals to open
    ``c = Com(x, r)``; the message space and randomness space are both Z_q.
    """

    value: int
    randomness: int

    def __add__(self, other: "Opening") -> "Opening":
        # Addition is performed by PedersenParams.add_openings (needs q);
        # this operator exists only to give a friendly error.
        raise TypeError("use PedersenParams.add_openings to add openings mod q")


@dataclass(frozen=True)
class Commitment:
    """A Pedersen commitment: a single group element.

    Thin immutable wrapper so type signatures distinguish commitments from
    bare group elements; supports the homomorphic ``*`` and ``/``.
    """

    element: GroupElement

    def __mul__(self, other: "Commitment") -> "Commitment":
        if not isinstance(other, Commitment):
            return NotImplemented
        return Commitment(self.element * other.element)

    def __truediv__(self, other: "Commitment") -> "Commitment":
        if not isinstance(other, Commitment):
            return NotImplemented
        return Commitment(self.element / other.element)

    def __pow__(self, exponent: int) -> "Commitment":
        return Commitment(self.element ** exponent)

    def to_bytes(self) -> bytes:
        return self.element.to_bytes()


def _shared_bases(group: Group, h_label: bytes):
    """``(h, fixed-base pair for (g, h))`` for ``(group, h_label)``, built
    once per process.

    Every session, decoded wire params and fleet peer thread on one group
    shares one :meth:`Group.fixed_base_pair` instead of rebuilding it: two
    window-6 comb tables on the Python curve kernels (33 ms on
    ristretto255) and on modp-2048 (0.9 s), byte-digit residue rows on
    the narrower Schnorr groups (1.7 ms on p64-sim, 4 ms on p128-sim,
    13 ms on p256-sim — less than their comb tables took), nothing on
    libsodium.  The memo hangs off the group object: table
    entries reference their group, so a module-level weak map could never
    release them, whereas here an ad-hoc group and its tables are one
    garbage cycle.  An entry is published with a single ``setdefault`` only
    once fully built and is never written again, so threads racing to
    build the same pair each get a complete one and all but one copy is
    dropped.
    """
    memo = group.__dict__.setdefault("_pedersen_tables", {})
    entry = memo.get(h_label)
    if entry is None:
        g = group.generator()
        h = group.hash_to_group(h_label)
        if h == g or h.is_identity():
            raise ParameterError("degenerate h; choose a different label")
        entry = memo.setdefault(h_label, (h, group.fixed_base_pair(g, h)))
    return entry


class PedersenParams:
    """Public parameters (pp) for Pedersen commitments over ``group``.

    ``h`` is derived by hashing-to-group, so no party knows log_g(h)
    ("nothing up my sleeve"); Setup(1^κ) in the paper.
    """

    def __init__(self, group: Group, *, h_label: bytes = b"repro.pedersen.h") -> None:
        self.group = group
        self.g = group.generator()
        self.q = group.order
        # The protocol commits to thousands of coins with the same two
        # generators; how ``g^x · h^r`` is best computed for *fixed* g and h
        # is the backend's call (comb tables on the Python kernels).
        self.h, self._fixed = _shared_bases(group, h_label)
        # Com(0,0) = 1 and Com(1,0) = g come up on every Line 12 update;
        # cache them instead of recomputing.
        self._const_zero = Commitment(group.identity())
        self._const_one = Commitment(self.g)
        # pp never changes, and every coin's proof transcript absorbs it.
        self._transcript_bytes = b"|".join(
            [group.name.encode(), self.g.to_bytes(), self.h.to_bytes()]
        )

    # Committing ----------------------------------------------------------

    def commit(self, value: int, randomness: int) -> Commitment:
        """Com(value, randomness) = g^value * h^randomness, as one
        fixed-base pair product (the same routine as :meth:`commit_many`)."""
        return Commitment(self._fixed.dual_many((value,), (randomness,))[0])

    def pow_g(self, exponent: int) -> GroupElement:
        """g ** exponent via the fixed-base pair."""
        return self._fixed.dual_many((exponent,), (0,))[0]

    def pow_h(self, exponent: int) -> GroupElement:
        """h ** exponent via the fixed-base pair.

        ``h^v`` with a full-width exponent is the left side of the Σ-OR
        branch-0 equation; on the comb tables it is
        ~order_bits/window multiplications with no squarings.  (The
        equations are dominated by the variable-base powers of the
        commitment on their right sides, not by this.)
        """
        return self._fixed.dual_many((0,), (exponent,))[0]

    def commit_fresh(self, value: int, rng: RNG | None = None) -> tuple[Commitment, Opening]:
        """Commit with fresh uniform randomness; returns (c, opening)."""
        r = default_rng(rng).field_element(self.q)
        return self.commit(value, r), Opening(value % self.q, r)

    def commit_many(
        self, values: Sequence[int], randomness: Sequence[int]
    ) -> list[Commitment]:
        """Com(x_i, r_i) for every pair.

        The commit path for every bulk producer: ``commit_vector``, client
        share commitments, and the prover's nb-coin phase.
        """
        if len(values) != len(randomness):
            raise ParameterError("values and randomness length mismatch")
        return [Commitment(element) for element in self._fixed.dual_many(values, randomness)]

    def commit_vector(
        self, values: Sequence[int], rng: RNG | None = None
    ) -> tuple[list[Commitment], list[Opening]]:
        """Coordinate-wise commitments to a vector (one-hot inputs etc.)."""
        rng = default_rng(rng)
        q = self.q
        openings = [
            Opening(value % q, rng.field_element(q)) for value in values
        ]
        commitments = self.commit_many(
            [o.value for o in openings], [o.randomness for o in openings]
        )
        return commitments, openings

    # Verifying -----------------------------------------------------------

    def verify_opening(self, commitment: Commitment, opening: Opening) -> None:
        """Raise :class:`CommitmentOpeningError` unless c == Com(x, r)."""
        expected = self.commit(opening.value, opening.randomness)
        if expected.element != commitment.element:
            raise CommitmentOpeningError("opening does not match commitment")

    def opens_to(self, commitment: Commitment, opening: Opening) -> bool:
        """Boolean form of :meth:`verify_opening`."""
        return self.commit(opening.value, opening.randomness).element == commitment.element

    # Homomorphic helpers ---------------------------------------------------

    def add_openings(self, openings: Iterable[Opening]) -> Opening:
        """Opening of the product of the corresponding commitments."""
        value = 0
        randomness = 0
        for opening in openings:
            value = (value + opening.value) % self.q
            randomness = (randomness + opening.randomness) % self.q
        return Opening(value, randomness)

    def product(self, commitments: Iterable[Commitment]) -> Commitment:
        """Com of the sum: product of commitments."""
        return Commitment(self.group.product(c.element for c in commitments))

    def commitment_to_constant(self, value: int) -> Commitment:
        """Com(value, 0) — used by the verifier's Line 12 update ĉ' = Com(1,0)/c'."""
        value %= self.q
        if value == 0:
            return self._const_zero
        if value == 1:
            return self._const_one
        return Commitment(self.pow_g(value))

    def one_minus(self, commitment: Commitment) -> Commitment:
        """Com(1, 0) * c^-1: a commitment to 1 - x with randomness -r.

        This is exactly the verifier's linear update for b = 1 on Line 12
        of Figure 2: the verifier computes a commitment to the XOR-adjusted
        bit without ever seeing the bit.
        """
        return Commitment(self._const_one.element / commitment.element)

    def transcript_bytes(self) -> bytes:
        """Canonical encoding of pp, bound into every proof transcript."""
        return self._transcript_bytes
