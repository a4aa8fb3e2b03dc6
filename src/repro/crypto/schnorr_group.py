"""Schnorr groups: the prime-order subgroup of quadratic residues of Z*p.

This is the paper's default backend ("we adopted Gq ⊂ Z*p based on the
finite field discrete log problem", Section 6).  For a *safe* prime
p = 2q + 1, the quadratic residues of Z*p form a cyclic subgroup of prime
order q; membership is a Jacobi-symbol check (no exponentiation), computed
by libgmp's ``mpz_jacobi`` where the host has it (:mod:`repro.crypto.gmp`,
opened at a process's first membership test) and by the pure loop
:func:`repro.utils.numth.jacobi_symbol` otherwise — same verdicts, same
exceptions, nothing to configure.

Named parameter sets (exactly the keys of ``NAMED_GROUPS``):

``modp-2048``
    RFC 3526 group 14 (a safe prime used by IKE); production strength and
    what the paper's OpenSSL implementation corresponds to.
``p256-sim``, ``p128-sim``, ``p64-sim``
    Pre-generated safe primes at reduced sizes for simulation and tests.
    Deterministically generated and re-verified by the test suite.  These
    exercise identical code paths at a fraction of the cost — useful since
    this reproduction is pure Python.
``p32-sim``
    A 32-bit toy group, small enough for a discrete-log oracle; used only
    by the Section 5 separation demo.

Exponentiation uses the built-in ``pow`` (libmpdec-free, GMP-like C path in
CPython), which is the closest analogue of the paper's OpenSSL BigNum calls.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.crypto.group import Group, GroupElement
from repro.errors import EncodingError, NotOnGroupError, ParameterError
from repro.utils.numth import batch_inverse, is_probable_prime, jacobi_symbol
from repro.utils.encoding import int_to_bytes

__all__ = ["SchnorrGroup", "SchnorrElement", "NAMED_GROUPS"]


# RFC 3526 group 14 (2048-bit MODP). Safe prime: q = (p-1)/2 is prime.
_RFC3526_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# Deterministically pre-generated safe primes (seeds "repro-<bits>"), verified
# in tests/crypto/test_schnorr_group.py::test_named_groups_are_safe_primes.
_SIM_256 = 0xF0A9168889ECF85024DEF3A19A22BF21D1DDB584A63A678414215485D31267E3
_SIM_128 = 0xD3D4A4D75F35187165961185ED721AB7
_SIM_64 = 0x8D13413B94E597C3
# 32-bit toy group: order ~2^30, small enough for a baby-step/giant-step
# discrete-log "oracle" — used ONLY by the Section 5 separation demo to
# play the role of an unbounded adversary.
_SIM_32 = 0xA4C3B403


class SchnorrElement(GroupElement):
    """Element of the quadratic-residue subgroup, stored as int in [1, p)."""

    __slots__ = ("_group", "_value")

    def __init__(self, group: "SchnorrGroup", value: int) -> None:
        self._group = group
        self._value = value

    @property
    def group(self) -> "SchnorrGroup":
        return self._group

    @property
    def value(self) -> int:
        """Underlying residue (an integer mod p)."""
        return self._value

    def combine(self, other: GroupElement) -> "SchnorrElement":
        if not isinstance(other, SchnorrElement) or other._group is not self._group:
            raise NotOnGroupError("cannot combine elements of different groups")
        return SchnorrElement(self._group, (self._value * other._value) % self._group.modulus)

    def scale(self, exponent: int) -> "SchnorrElement":
        return SchnorrElement(
            self._group, pow(self._value, exponent % self._group.order, self._group.modulus)
        )

    def invert(self) -> "SchnorrElement":
        return SchnorrElement(self._group, pow(self._value, -1, self._group.modulus))

    def to_bytes(self) -> bytes:
        return int_to_bytes(self._value, self._group.element_bytes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchnorrElement)
            and other._group is self._group
            and other._value == self._value
        )

    def __hash__(self) -> int:
        return hash((id(self._group), self._value))


class _SchnorrKernel:
    """Raw multiexp kernel: residues as plain ints, products mod p.

    Table negations use Montgomery batch inversion (one ``pow(·, -1, p)``
    for an arbitrarily long list), so Straus' signed-digit tables cost
    three multiplications per entry instead of an inversion each.
    """

    __slots__ = ("_group", "_p", "identity_raw", "op_overhead")

    native_pow = True  # SchnorrElement.scale is CPython's C `pow`
    # Negation is a modular inversion: ~3 multiplications per element
    # even via batch_inverse, which is why signed-digit Pippenger does
    # not pay on this backend (see repro.crypto.multiexp).
    neg_muls = 3.2

    def __init__(self, group: "SchnorrGroup") -> None:
        self._group = group
        self._p = group.modulus
        self.identity_raw = 1
        # Python bookkeeping (~0.5 µs/hit) relative to one modmul, which
        # scales subquadratically with the modulus width (Karatsuba).
        mul_us = 0.3 * (group.modulus.bit_length() / 128.0) ** 1.25
        self.op_overhead = min(3.0, 0.5 / mul_us)

    @staticmethod
    def to_raw(element: "SchnorrElement") -> int:
        return element._value

    def from_raw(self, raw: int) -> "SchnorrElement":
        return SchnorrElement(self._group, raw)

    def mul(self, a: int, b: int) -> int:
        return a * b % self._p

    def sqr(self, a: int) -> int:
        return a * a % self._p

    def neg_many(self, raws: list[int]) -> list[int]:
        return batch_inverse(raws, self._p)


class SchnorrGroup(Group):
    """Quadratic-residue subgroup of Z*p for a safe prime p = 2q + 1."""

    def __init__(self, p: int, *, name: str, check: bool = True) -> None:
        if check:
            if not is_probable_prime(p):
                raise ParameterError("modulus is not prime")
            if not is_probable_prime((p - 1) // 2):
                raise ParameterError("modulus is not a safe prime")
        self._p = p
        self._q = (p - 1) // 2
        self._name = name
        self.element_bytes = (p.bit_length() + 7) // 8
        # g = 4 = 2^2 is always a quadratic residue and (for safe primes,
        # p > 5) generates the full order-q subgroup.
        self._g = SchnorrElement(self, 4 % p)
        self._identity = SchnorrElement(self, 1)
        self._kernel: _SchnorrKernel | None = None

    # Group interface ----------------------------------------------------

    @property
    def order(self) -> int:
        return self._q

    @property
    def modulus(self) -> int:
        """The prime p of the ambient field Z*p."""
        return self._p

    @property
    def name(self) -> str:
        return self._name

    def identity(self) -> SchnorrElement:
        return self._identity

    def generator(self) -> SchnorrElement:
        return self._g

    def hash_to_group(self, label: bytes) -> SchnorrElement:
        """Hash-to-QR: expand label to Z*p, square to land in the subgroup.

        Squaring is a 2-to-1 map from Z*p onto the quadratic residues, so
        the output discrete log relative to g is unknown to everyone —
        exactly the independence Pedersen commitments require of h.
        """
        counter = 0
        while True:
            digest = b""
            block = 0
            seed = b"repro.schnorr.h2g|" + self._name.encode() + b"|" + label
            while len(digest) < self.element_bytes + 16:
                digest += hashlib.sha512(seed + counter.to_bytes(4, "big") + block.to_bytes(4, "big")).digest()
                block += 1
            candidate = int.from_bytes(digest, "big") % self._p
            if candidate not in (0, 1, self._p - 1):
                return SchnorrElement(self, pow(candidate, 2, self._p))
            counter += 1  # pragma: no cover - astronomically unlikely

    def from_bytes(self, data: bytes) -> SchnorrElement:
        if len(data) != self.element_bytes:
            raise EncodingError(
                f"expected {self.element_bytes} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        return self.element(value)

    def element(self, value: int) -> SchnorrElement:
        """Wrap an integer, checking subgroup membership."""
        if not 1 <= value < self._p:
            raise NotOnGroupError(f"{value} outside Z*p")
        if value != 1 and self._symbol(value) != 1:
            raise NotOnGroupError("value is not a quadratic residue (not in Gq)")
        return SchnorrElement(self, value)

    def _symbol(self, value: int) -> int:
        """(value|p) — this method runs once per group, then the instance
        attribute it sets shadows it: libgmp's ``mpz_jacobi`` where the host
        has it (see :mod:`repro.crypto.gmp`), the pure loop otherwise.  Two
        threads' first tests may both decide; they decide alike."""
        from repro.crypto.gmp import jacobi_modulo

        p = self._p
        self._symbol = jacobi_modulo(p) or (lambda a: jacobi_symbol(a, p))
        return self._symbol(value)

    def multiexp_kernel(self) -> _SchnorrKernel:
        """Raw-int kernel consumed by :mod:`repro.crypto.multiexp`."""
        if self._kernel is None:
            self._kernel = _SchnorrKernel(self)
        return self._kernel

    # Named parameter sets ------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def named(name: str) -> "SchnorrGroup":
        """Return a cached named group ('modp-2048', 'p256-sim', ...).

        The pinned moduli are proven safe primes by the test suite, not
        again here (3 s of Miller–Rabin per process at 2048 bits).
        """
        try:
            p = NAMED_GROUPS[name]
        except KeyError:
            raise ParameterError(
                f"unknown Schnorr group {name!r}; options: {sorted(NAMED_GROUPS)}"
            ) from None
        return SchnorrGroup(p, name=name, check=False)


NAMED_GROUPS: dict[str, int] = {
    "modp-2048": _RFC3526_2048,
    "p256-sim": _SIM_256,
    "p128-sim": _SIM_128,
    "p64-sim": _SIM_64,
    "p32-sim": _SIM_32,
}
