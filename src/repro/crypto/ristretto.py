"""ristretto255: a prime-order group over Curve25519, in pure Python.

The paper's second backend ("we also implemented Pedersen commitments over
elliptic curves using the prime order Ristretto group", Section 6, via
curve25519-dalek).  Ristretto wraps the twisted Edwards curve
edwards25519 (a = -1, d = -121665/121666) and quotients away its cofactor,
yielding a group of prime order

    ℓ = 2^252 + 27742317777372353535851937790883648493

with canonical, validated 32-byte encodings — exactly the interface the
commitment and Σ-protocol layers need.

The implementation follows the ristretto255 specification
(draft-irtf-cfrg-ristretto255-decaf448): extended Edwards coordinates,
``SQRT_RATIO_M1`` for square-root computation, the Elligator 2 map for
``hash_to_group``, and the canonical encode/decode procedures.  Known
test vectors for small multiples of the generator are checked in
``tests/crypto/test_ristretto.py``.

Two deliberate departures from RFC 9496, both in the one-way map and
neither in the group: :meth:`RistrettoGroup.hash_to_group` hashes a
domain-separated label, and the map itself (``_elligator``) yields the
*inverse* of the RFC's point — see ``SQRT_AD_MINUS_ONE`` below.

Role: this module is the reference implementation of ristretto255 in this
repository — what the tests compare against and what runs on a host
without libsodium.  Where libsodium loads, the name ``"ristretto255"``
resolves to :mod:`repro.crypto.sodium` instead (same bytes everywhere;
``core.params._resolve_group`` decides).

Performance note: being pure Python, a scalar multiplication costs about a
millisecond here (328 µs for the paper's dalek build on an M1, 50 µs for
libsodium on this host), one addition ≈ 4 µs and one encoding ≈ 130 µs (a
field exponentiation).  Among the *pure* backends the paper's relative
finding (EC slower than modp) inverts — 255-bit Edwards arithmetic in
Python beats CPython's 2048-bit ``pow`` because, without native field
code, bignum width dominates; with the native backend the curve wins
outright.  ``python -m repro micro`` prints a row for each and names the
backend the name resolves to; see DESIGN.md "Group backends and how one is
chosen".
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.crypto.group import Group, GroupElement
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import RNG, default_rng

__all__ = ["RistrettoGroup", "RistrettoPoint", "P", "ELL"]

# Field prime and group order.
P = 2**255 - 19
ELL = 2**252 + 27742317777372353535851937790883648493

# Curve constant d = -121665/121666 mod p.
D = (-121665 * pow(121666, -1, P)) % P


def _is_negative(x: int) -> bool:
    """Ristretto sign convention: an element is negative iff it is odd."""
    return (x % P) & 1 == 1


def _abs(x: int) -> int:
    x %= P
    return P - x if _is_negative(x) else x


def _sqrt_m1() -> int:
    """The non-negative square root of -1 mod p."""
    root = pow(2, (P - 1) // 4, P)
    return _abs(root)


SQRT_M1 = _sqrt_m1()
ONE_MINUS_D_SQ = (1 - D * D) % P
D_MINUS_ONE_SQ = ((D - 1) * (D - 1)) % P


def sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """Compute sqrt(u/v) if it exists, else sqrt(SQRT_M1 * u/v).

    Returns ``(was_square, root)`` with ``root`` non-negative.  All four
    residue cases of the candidate are handled explicitly, which makes the
    function correct independent of the sign convention of ``SQRT_M1``.
    """
    u %= P
    v %= P
    v3 = (v * v % P) * v % P
    v7 = (v3 * v3 % P) * v % P
    r = (u * v3 % P) * pow(u * v7 % P, (P - 5) // 8, P) % P
    check = v * (r * r % P) % P

    minus_u = (P - u) % P
    if check == u % P:
        was_square = True
    elif check == minus_u:
        was_square = True
        r = r * SQRT_M1 % P
    elif check == minus_u * SQRT_M1 % P:
        was_square = False
        r = r * SQRT_M1 % P
    elif check == u * SQRT_M1 % P:
        was_square = False
    else:
        # u == 0 or v == 0 reduce to the cases above (check == 0 == u).
        was_square = u % P == 0
        r = 0
    return was_square, _abs(r)


# sqrt(a*d - 1) for a = -1: the *non-negative* root.  RFC 9496 fixes this
# constant to the negative root, and it enters the one-way map as a factor
# of the Y and Z coordinates, so every ``_elligator`` output — and every sum
# of two — is the inverse of the RFC's point.  Harmless for Pedersen binding
# (log_g of −h is as unknown as log_g of h), but flipping it changes h and
# with it every ristretto255 fingerprint, transcript and golden digest:
# that belongs to a versioned re-pin (ROADMAP item 1(c)), not to a cleanup.
SQRT_AD_MINUS_ONE = sqrt_ratio_m1(((-1 - D) % P), 1)[1]
INVSQRT_A_MINUS_D = sqrt_ratio_m1(1, (-1 - D) % P)[1]  # 1/sqrt(a - d)


def label_digest(label: bytes) -> bytes:
    """The 64 uniform bytes ``hash_to_group`` feeds the one-way map, on
    every ristretto255 backend: ``h`` depends on nothing else."""
    return hashlib.sha512(b"repro.ristretto.h2g|" + label).digest()


class RistrettoPoint(GroupElement):
    """A ristretto255 group element in extended Edwards coordinates.

    Internally ``(X : Y : Z : T)`` with x = X/Z, y = Y/Z, x*y = T/Z.
    Equality is *ristretto* equality (coset equality), not pointwise
    Edwards equality: P == Q iff X1*Y2 == Y1*X2 or Y1*Y2 == X1*X2.
    """

    __slots__ = ("_group", "X", "Y", "Z", "T", "_encoding")

    def __init__(self, group: "RistrettoGroup", X: int, Y: int, Z: int, T: int) -> None:
        self._group = group
        self.X = X % P
        self.Y = Y % P
        self.Z = Z % P
        self.T = T % P
        self._encoding: bytes | None = None

    @property
    def group(self) -> "RistrettoGroup":
        return self._group

    # Edwards arithmetic --------------------------------------------------

    def combine(self, other: GroupElement) -> "RistrettoPoint":
        if not isinstance(other, RistrettoPoint):
            raise NotOnGroupError("cannot combine elements of different groups")
        # add-2008-hwcd-3 for a = -1 twisted Edwards curves.
        X1, Y1, Z1, T1 = self.X, self.Y, self.Z, self.T
        X2, Y2, Z2, T2 = other.X, other.Y, other.Z, other.T
        A = (Y1 - X1) * (Y2 - X2) % P
        B = (Y1 + X1) * (Y2 + X2) % P
        C = T1 * 2 * D % P * T2 % P
        Dv = Z1 * 2 * Z2 % P
        E = B - A
        F = Dv - C
        G = Dv + C
        H = B + A
        return RistrettoPoint(self._group, E * F, G * H, F * G, E * H)

    def double(self) -> "RistrettoPoint":
        # dbl-2008-hwcd for a = -1.
        X1, Y1, Z1 = self.X, self.Y, self.Z
        A = X1 * X1 % P
        B = Y1 * Y1 % P
        C = 2 * Z1 * Z1 % P
        H = A + B
        E = H - (X1 + Y1) * (X1 + Y1) % P
        G = A - B
        F = C + G
        return RistrettoPoint(self._group, E * F, G * H, F * G, E * H)

    def scale(self, exponent: int) -> "RistrettoPoint":
        e = exponent % ELL
        if e == 0:
            return self._group.identity()
        # 4-bit fixed windows, MSB first, on the kernel's raw tuples: one
        # point object for the result instead of one per group operation.
        mul, sqr = _RistrettoKernel.mul, _RistrettoKernel.sqr
        raw = (self.X, self.Y, self.Z, self.T)
        table = [None, raw]
        for _ in range(2, 16):
            table.append(mul(table[-1], raw))
        top = (e.bit_length() + 3) // 4 * 4 - 4
        acc = table[e >> top]
        for shift in range(top - 4, -1, -4):
            acc = sqr(sqr(sqr(sqr(acc))))
            digit = (e >> shift) & 0xF
            if digit:
                acc = mul(acc, table[digit])
        return RistrettoPoint(self._group, *acc)

    def invert(self) -> "RistrettoPoint":
        return RistrettoPoint(self._group, P - self.X, self.Y, self.Z, P - self.T)

    # Ristretto encoding ---------------------------------------------------

    def to_bytes(self) -> bytes:
        if self._encoding is not None:
            return self._encoding
        X, Y, Z, T = self.X, self.Y, self.Z, self.T
        u1 = (Z + Y) * (Z - Y) % P
        u2 = X * Y % P
        _, invsqrt = sqrt_ratio_m1(1, u1 * u2 % P * u2 % P)
        den1 = invsqrt * u1 % P
        den2 = invsqrt * u2 % P
        z_inv = den1 * den2 % P * T % P
        if _is_negative(T * z_inv % P):
            ix = X * SQRT_M1 % P
            iy = Y * SQRT_M1 % P
            x = iy
            y = ix
            den_inv = den1 * INVSQRT_A_MINUS_D % P
        else:
            x = X
            y = Y
            den_inv = den2
        if _is_negative(x * z_inv % P):
            y = (P - y) % P
        s = _abs(den_inv * ((Z - y) % P) % P)
        self._encoding = s.to_bytes(32, "little")
        return self._encoding

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RistrettoPoint):
            return NotImplemented
        lhs = self.X * other.Y % P == self.Y * other.X % P
        rhs = self.Y * other.Y % P == self.X * other.X % P
        return lhs or rhs

    def __hash__(self) -> int:
        return hash((id(self._group), self.to_bytes()))


class _RistrettoKernel:
    """Raw multiexp kernel: (X, Y, Z, T) extended-coordinate tuples.

    The add/double formulas are the same complete a = -1 formulas as
    :meth:`RistrettoPoint.combine` / :meth:`RistrettoPoint.double`, inlined
    over tuples so the whole product runs without allocating a point
    object per operation; only the final result is re-boxed.
    """

    __slots__ = ("_group", "identity_raw")

    native_pow = False  # scalar mult is a Python double-and-add
    op_overhead = 0.1  # ~10 field muls per group op dwarf loop bookkeeping
    neg_muls = 0.05  # negation flips two coordinates — effectively free

    def __init__(self, group: "RistrettoGroup") -> None:
        self._group = group
        self.identity_raw = (0, 1, 1, 0)

    @staticmethod
    def to_raw(point: "RistrettoPoint") -> tuple[int, int, int, int]:
        return (point.X, point.Y, point.Z, point.T)

    def from_raw(self, raw: tuple[int, int, int, int]) -> "RistrettoPoint":
        return RistrettoPoint(self._group, *raw)

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        X1, Y1, Z1, T1 = a
        X2, Y2, Z2, T2 = b
        A = (Y1 - X1) * (Y2 - X2) % P
        B = (Y1 + X1) * (Y2 + X2) % P
        C = T1 * 2 * D % P * T2 % P
        Dv = Z1 * 2 * Z2 % P
        E = B - A
        F = Dv - C
        G = Dv + C
        H = B + A
        return (E * F % P, G * H % P, F * G % P, E * H % P)

    @staticmethod
    def sqr(a: tuple) -> tuple:
        X1, Y1, Z1, _ = a
        A = X1 * X1 % P
        B = Y1 * Y1 % P
        C = 2 * Z1 * Z1 % P
        H = A + B
        E = H - (X1 + Y1) * (X1 + Y1) % P
        G = A - B
        F = C + G
        return (E * F % P, G * H % P, F * G % P, E * H % P)

    @staticmethod
    def neg_many(raws: list[tuple]) -> list[tuple]:
        return [((P - X) % P, Y, Z, (P - T) % P) for X, Y, Z, T in raws]


class RistrettoGroup(Group):
    """The ristretto255 prime-order group (singleton per process)."""

    _NAME = "ristretto255"

    def __init__(self) -> None:
        self._identity = RistrettoPoint(self, 0, 1, 1, 0)
        # edwards25519 basepoint: y = 4/5, x the even root.
        by = 4 * pow(5, -1, P) % P
        bx = self._recover_x(by, sign_negative=False)
        self._generator = RistrettoPoint(self, bx, by, 1, bx * by % P)
        self._kernel: _RistrettoKernel | None = None

    @staticmethod
    def _recover_x(y: int, *, sign_negative: bool) -> int:
        # x^2 = (y^2 - 1) / (d*y^2 + 1)
        yy = y * y % P
        u = (yy - 1) % P
        v = (D * yy + 1) % P
        was_square, x = sqrt_ratio_m1(u, v)
        if not was_square:
            raise EncodingError("no square root: invalid y-coordinate")
        if _is_negative(x) != sign_negative:
            x = (P - x) % P
        return x

    @staticmethod
    @lru_cache(maxsize=1)
    def instance() -> "RistrettoGroup":
        return RistrettoGroup()

    # Group interface ------------------------------------------------------

    @property
    def order(self) -> int:
        return ELL

    @property
    def name(self) -> str:
        return self._NAME

    def identity(self) -> RistrettoPoint:
        return self._identity

    def generator(self) -> RistrettoPoint:
        return self._generator

    def from_bytes(self, data: bytes) -> RistrettoPoint:
        if len(data) != 32:
            raise EncodingError(f"ristretto encodings are 32 bytes, got {len(data)}")
        s = int.from_bytes(data, "little")
        if s >= P or _is_negative(s):
            raise NotOnGroupError("non-canonical ristretto encoding")
        ss = s * s % P
        u1 = (1 - ss) % P
        u2 = (1 + ss) % P
        u2_sqr = u2 * u2 % P
        v = ((P - D) * u1 % P * u1 + (P - u2_sqr)) % P
        was_square, invsqrt = sqrt_ratio_m1(1, v * u2_sqr % P)
        den_x = invsqrt * u2 % P
        den_y = invsqrt * den_x % P * v % P
        x = _abs(2 * s % P * den_x % P)
        y = u1 * den_y % P
        t = x * y % P
        if not was_square or _is_negative(t) or y == 0:
            raise NotOnGroupError("invalid ristretto encoding")
        point = RistrettoPoint(self, x, y, 1, t)
        # Decoding is injective on the inputs accepted above, so the
        # canonical encoding of this point *is* ``data``: hashing it into a
        # transcript or publishing it again needs no second square root.
        point._encoding = bytes(data)
        return point

    def hash_to_group(self, label: bytes) -> RistrettoPoint:
        """One-way map from a label to a group element (Elligator 2, twice).

        :meth:`from_uniform_bytes` on the SHA-512 digest of the
        domain-separated label (:func:`label_digest`).  The discrete log of
        the output with respect to the generator is unknown.
        """
        return self.from_uniform_bytes(label_digest(label))

    def from_uniform_bytes(self, data: bytes) -> RistrettoPoint:
        """The one-way map on caller-provided 64 bytes: split into two
        halves, mask each to 255 bits, map each through Elligator, and add.

        The *inverse* of RFC 9496's map on the same bytes (the sign of
        ``SQRT_AD_MINUS_ONE``): ``~from_uniform_bytes(d)`` is the RFC's
        point, which ``tests/crypto/test_ristretto.py`` pins on the RFC's
        own vectors.
        """
        if len(data) != 64:
            raise EncodingError("from_uniform_bytes requires exactly 64 bytes")
        r0 = int.from_bytes(data[:32], "little") & ((1 << 255) - 1)
        r1 = int.from_bytes(data[32:], "little") & ((1 << 255) - 1)
        return self._elligator(r0).combine(self._elligator(r1))

    def _elligator(self, r0: int) -> RistrettoPoint:
        r = SQRT_M1 * r0 % P * r0 % P
        u = (r + 1) * ONE_MINUS_D_SQ % P
        v = ((P - 1) - r * D) % P * ((r + D) % P) % P
        was_square, s = sqrt_ratio_m1(u, v)
        if not was_square:
            s = _abs(s * r0 % P)
            s = (P - s) % P  # s' = -|s * r0|
            c = r
        else:
            c = P - 1
        n = (c * ((r - 1) % P) % P * D_MINUS_ONE_SQ - v) % P
        w0 = 2 * s * v % P
        w1 = n * SQRT_AD_MINUS_ONE % P
        w2 = (1 - s * s) % P
        w3 = (1 + s * s) % P
        return RistrettoPoint(self, w0 * w3, w2 * w1, w1 * w3, w0 * w2)

    def random_element(self, rng: RNG | None = None) -> RistrettoPoint:
        return self.from_uniform_bytes(default_rng(rng).random_bytes(64))

    def multiexp_kernel(self) -> _RistrettoKernel:
        """Extended-coordinate kernel consumed by :mod:`repro.crypto.multiexp`."""
        if self._kernel is None:
            self._kernel = _RistrettoKernel(self)
        return self._kernel
