"""Abstract prime-order group interface.

Pedersen commitments and Σ-protocols are written against this interface so
the finite-field and elliptic-curve backends are interchangeable — exactly
the experiment the paper runs in Section 6 (modp vs Ristretto latency).

A ``Group`` exposes a cyclic group of *prime* order q with:

* ``generator()`` — the standard base point g,
* ``hash_to_group(label)`` — a second generator h with unknown discrete log
  relative to g ("nothing up my sleeve"), required for Pedersen binding,
* element arithmetic via :class:`GroupElement` operator overloads
  (multiplicative notation: ``*`` combines, ``**`` is scalar action, ``~``
  inverts), and
* canonical byte encodings for Fiat–Shamir hashing, and
* ``multiexp_kernel()`` — the raw representation the multi-exponentiation
  engine (:mod:`repro.crypto.multiexp`) runs on.

Three backends implement it: ``SchnorrGroup`` (the modp group and the
``p*-sim`` sizes), ``RistrettoGroup`` and ``SodiumRistrettoGroup``
(ristretto255 in pure Python and on libsodium).
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

from repro.errors import NotOnGroupError
from repro.utils.rng import RNG, default_rng

__all__ = ["Group", "GroupElement"]


class GroupElement(abc.ABC):
    """An element of a prime-order group (immutable, hashable)."""

    __slots__ = ()

    @property
    @abc.abstractmethod
    def group(self) -> "Group":
        """The group this element belongs to."""

    @abc.abstractmethod
    def combine(self, other: "GroupElement") -> "GroupElement":
        """Group operation (written multiplicatively)."""

    @abc.abstractmethod
    def scale(self, exponent: int) -> "GroupElement":
        """Scalar action: self raised to ``exponent`` (mod group order)."""

    @abc.abstractmethod
    def invert(self) -> "GroupElement":
        """Group inverse."""

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Canonical (injective) byte encoding."""

    @abc.abstractmethod
    def __eq__(self, other: object) -> bool: ...

    @abc.abstractmethod
    def __hash__(self) -> int: ...

    # Operator sugar ----------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.combine(other)

    def __pow__(self, exponent: int) -> "GroupElement":
        return self.scale(exponent)

    def __invert__(self) -> "GroupElement":
        return self.invert()

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.combine(other.invert())

    def is_identity(self) -> bool:
        return self == self.group.identity()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.to_bytes().hex()[:16]}…>"


class Group(abc.ABC):
    """A cyclic group of prime order ``q`` with canonical encodings."""

    @property
    @abc.abstractmethod
    def order(self) -> int:
        """Prime order q of the group (the scalar field is Z_q)."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable identifier (used in transcripts and parameter hashes)."""

    @abc.abstractmethod
    def identity(self) -> GroupElement: ...

    @abc.abstractmethod
    def generator(self) -> GroupElement: ...

    @abc.abstractmethod
    def hash_to_group(self, label: bytes) -> GroupElement:
        """Derive a group element with unknown discrete log w.r.t. g."""

    @abc.abstractmethod
    def from_bytes(self, data: bytes) -> GroupElement:
        """Decode (and validate membership of) a canonical encoding."""

    # Common helpers -----------------------------------------------------

    @property
    def scalar_bytes(self) -> int:
        """Width of a canonically encoded scalar."""
        return (self.order.bit_length() + 7) // 8

    def random_scalar(self, rng: RNG | None = None) -> int:
        """Uniform scalar in Z_q."""
        return default_rng(rng).field_element(self.order)

    def random_element(self, rng: RNG | None = None) -> GroupElement:
        """Uniform group element (g^r for uniform r)."""
        return self.generator() ** self.random_scalar(rng)

    def check_element(self, element: GroupElement) -> GroupElement:
        if element.group is not self:
            raise NotOnGroupError("element belongs to a different group instance")
        return element

    def multi_scale(
        self, bases: Sequence[GroupElement], exponents: Sequence[int]
    ) -> GroupElement:
        """Product of bases[i] ** exponents[i].

        Routed through the tiered engine in :mod:`repro.crypto.multiexp`
        (naive / Straus-wNAF / Pippenger, selected by batch size and
        exponent bit length), on the raw kernel of :meth:`multiexp_kernel`.
        """
        from repro.crypto.multiexp import multi_exponentiation

        return multi_exponentiation(self, list(bases), list(exponents))

    @abc.abstractmethod
    def multiexp_kernel(self):
        """Raw-representation kernel for :mod:`repro.crypto.multiexp`.

        Each backend returns one cached object over its cheapest internal
        representation (ints mod p, extended Edwards coordinates,
        libsodium encodings), so the engine's inner loops allocate no
        ``GroupElement`` per operation.  It provides:

        * ``identity_raw`` — the raw identity value,
        * ``to_raw`` / ``from_raw`` — convert to/from ``GroupElement``,
        * ``mul`` / ``sqr`` — group operation / squaring on raw values,
        * ``neg_many`` — invert a list of raw values (batched where the
          backend can, e.g. Montgomery batch inversion mod p),
        * ``native_pow`` / ``op_overhead`` / ``neg_muls`` — cost-model
          hints for :func:`~repro.crypto.multiexp.select_algorithm` (is a
          single ``**`` a C-speed ``pow``, how expensive Python bookkeeping
          is relative to one group op, and what one negation costs in
          group multiplications),
        * ``pow_muls`` — optional: what one ``**`` costs in units of
          ``mul`` when that is not ``bits``,
        * ``modulus`` — optional: raw values are residues mod this int, so
          the unsigned bucket method runs as an int loop instead of
          calling ``mul``,
        * ``signed_buckets`` — optional, default True: False keeps the
          bucket method on unsigned digits.
        """

    def fixed_base_pair(self, a: GroupElement, b: GroupElement):
        """How this backend computes ``a^x · b^y`` for two *fixed* bases.

        Returns an object whose ``dual_many(xs, ys)`` is the list of
        ``a^x · b^y`` — the shape of every Pedersen operation.  The Python
        kernels precompute window-6 comb tables (:class:`repro.crypto.
        multiexp.CombPair`).  Backends override it where they know better:
        the Schnorr groups up to 512-bit moduli walk byte digits over
        plain-int rows (``schnorr_group._ResiduePair``, ≈ 2.2× the comb
        tables on p64/p128-sim), and libsodium, whose powers are native and
        whose additions are not cheap, builds nothing.
        """
        from repro.crypto.multiexp import CombPair

        return CombPair(a, b)

    def product(self, elements: Iterable[GroupElement]) -> GroupElement:
        """Plain product, accumulated on the raw kernel representation."""
        kernel = self.multiexp_kernel()
        to_raw, mul = kernel.to_raw, kernel.mul
        acc = None
        for element in elements:
            raw = to_raw(element)
            acc = raw if acc is None else mul(acc, raw)
        if acc is None:
            return self.identity()
        return kernel.from_raw(acc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} |q|={self.order.bit_length()}b>"
