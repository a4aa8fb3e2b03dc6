"""NIST P-256 (secp256r1) as a third interchangeable group backend.

The paper evaluates two Pedersen instantiations (finite-field Schnorr
group and Ristretto).  P-256 is the curve actually shipped in most TLS
stacks and HSMs, so a deployment of ΠBin would plausibly sit on it; this
backend demonstrates the commitment/Σ-proof layers are genuinely
backend-agnostic — prime-order short-Weierstrass arithmetic with a
completely different coordinate system and encoding.

Implementation: Jacobian projective coordinates (add/double without
inversions), SEC1 compressed point encoding (33 bytes), hash-to-curve by
try-and-increment (fine for deriving the fixed Pedersen ``h``; not
constant-time, like the rest of this research codebase).

The curve group itself has prime order n, so no cofactor handling is
needed (unlike edwards25519, which is why Ristretto exists).
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.group import Group, GroupElement
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.numth import batch_inverse, jacobi_symbol

__all__ = ["P256Group", "P256Point"]

# NIST P-256 domain parameters.
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
# p ≡ 3 (mod 4), so rhs^((p+1)/4) is a square root of rhs whenever one exists.
_SQRT_EXP = (_P + 1) // 4


class P256Point(GroupElement):
    """A point in Jacobian coordinates (X : Y : Z); Z = 0 is infinity."""

    __slots__ = ("_group", "X", "Y", "Z")

    def __init__(self, group: "P256Group", X: int, Y: int, Z: int) -> None:
        self._group = group
        self.X = X % _P
        self.Y = Y % _P
        self.Z = Z % _P

    @property
    def group(self) -> "P256Group":
        return self._group

    def is_infinity(self) -> bool:
        return self.Z == 0

    def affine(self) -> tuple[int, int]:
        """(x, y) affine coordinates; raises on the point at infinity."""
        if self.is_infinity():
            raise NotOnGroupError("point at infinity has no affine form")
        z_inv = pow(self.Z, -1, _P)
        z2 = z_inv * z_inv % _P
        return self.X * z2 % _P, self.Y * z2 % _P * z_inv % _P

    # Jacobian arithmetic ---------------------------------------------------

    def double(self) -> "P256Point":
        if self.is_infinity() or self.Y == 0:
            return self._group.identity()
        X1, Y1, Z1 = self.X, self.Y, self.Z
        # a = -3 special case: M = 3(X - Z^2)(X + Z^2).
        z2 = Z1 * Z1 % _P
        m = 3 * ((X1 - z2) % _P) * ((X1 + z2) % _P) % _P
        y2 = Y1 * Y1 % _P
        s = 4 * X1 * y2 % _P
        x3 = (m * m - 2 * s) % _P
        y3 = (m * (s - x3) - 8 * y2 * y2) % _P
        z3 = 2 * Y1 * Z1 % _P
        return P256Point(self._group, x3, y3, z3)

    def combine(self, other: GroupElement) -> "P256Point":
        if not isinstance(other, P256Point):
            raise NotOnGroupError("cannot combine elements of different groups")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        X1, Y1, Z1 = self.X, self.Y, self.Z
        X2, Y2, Z2 = other.X, other.Y, other.Z
        z1z1 = Z1 * Z1 % _P
        z2z2 = Z2 * Z2 % _P
        u1 = X1 * z2z2 % _P
        u2 = X2 * z1z1 % _P
        s1 = Y1 * Z2 % _P * z2z2 % _P
        s2 = Y2 * Z1 % _P * z1z1 % _P
        if u1 == u2:
            if s1 != s2:
                return self._group.identity()
            return self.double()
        h = (u2 - u1) % _P
        r = (s2 - s1) % _P
        h2 = h * h % _P
        h3 = h2 * h % _P
        v = u1 * h2 % _P
        x3 = (r * r - h3 - 2 * v) % _P
        y3 = (r * (v - x3) - s1 * h3) % _P
        z3 = h * Z1 % _P * Z2 % _P
        return P256Point(self._group, x3, y3, z3)

    def scale(self, exponent: int) -> "P256Point":
        e = exponent % _N
        if e == 0 or self.is_infinity():
            return self._group.identity()
        # 4-bit window, MSB first.
        table = [self._group.identity(), self]
        for _ in range(2, 16):
            table.append(table[-1].combine(self))
        acc = self._group.identity()
        started = False
        for shift in range((e.bit_length() + 3) // 4 * 4 - 4, -1, -4):
            if started:
                acc = acc.double().double().double().double()
            digit = (e >> shift) & 0xF
            if digit:
                acc = acc.combine(table[digit])
                started = True
        return acc

    def invert(self) -> "P256Point":
        if self.is_infinity():
            return self
        return P256Point(self._group, self.X, (-self.Y) % _P, self.Z)

    # Encoding ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """SEC1 compressed: 0x02/0x03 || x (infinity: 33 zero bytes)."""
        if self.is_infinity():
            return bytes(33)
        x, y = self.affine()
        return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, P256Point):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        # X1 Z2^2 == X2 Z1^2 and Y1 Z2^3 == Y2 Z1^3.
        z1z1 = self.Z * self.Z % _P
        z2z2 = other.Z * other.Z % _P
        if self.X * z2z2 % _P != other.X * z1z1 % _P:
            return False
        return (
            self.Y * z2z2 % _P * other.Z % _P
            == other.Y * z1z1 % _P * self.Z % _P
        )

    def __hash__(self) -> int:
        return hash((id(self._group), self.to_bytes()))


class _P256Kernel:
    """Raw multiexp kernel: Jacobian (X, Y, Z) tuples, None for infinity.

    Inlines the same add/double formulas as :class:`P256Point` over plain
    tuples; the whole product stays in Jacobian coordinates and nothing
    is inverted until the final result is boxed (and even then only on
    serialization, where :meth:`P256Group.normalize_many` batches the
    inversions Montgomery-style).
    """

    __slots__ = ("_group", "identity_raw")

    native_pow = False  # scalar mult is a Python double-and-add
    op_overhead = 0.1  # Jacobian adds are ~12 field muls; bookkeeping is noise
    neg_muls = 0.05  # negation flips the Jacobian y — effectively free

    def __init__(self, group: "P256Group") -> None:
        self._group = group
        self.identity_raw = None

    @staticmethod
    def to_raw(point: "P256Point") -> tuple[int, int, int] | None:
        if point.Z == 0:
            return None
        return (point.X, point.Y, point.Z)

    def from_raw(self, raw: tuple[int, int, int] | None) -> "P256Point":
        if raw is None:
            return self._group.identity()
        return P256Point(self._group, *raw)

    @staticmethod
    def sqr(a: tuple | None) -> tuple | None:
        if a is None:
            return None
        X1, Y1, Z1 = a
        if Y1 == 0:
            return None
        z2 = Z1 * Z1 % _P
        m = 3 * ((X1 - z2) % _P) * ((X1 + z2) % _P) % _P
        y2 = Y1 * Y1 % _P
        s = 4 * X1 * y2 % _P
        x3 = (m * m - 2 * s) % _P
        y3 = (m * (s - x3) - 8 * y2 * y2) % _P
        z3 = 2 * Y1 * Z1 % _P
        return (x3, y3, z3)

    def mul(self, a: tuple | None, b: tuple | None) -> tuple | None:
        if a is None:
            return b
        if b is None:
            return a
        X1, Y1, Z1 = a
        X2, Y2, Z2 = b
        z1z1 = Z1 * Z1 % _P
        z2z2 = Z2 * Z2 % _P
        u1 = X1 * z2z2 % _P
        u2 = X2 * z1z1 % _P
        s1 = Y1 * Z2 % _P * z2z2 % _P
        s2 = Y2 * Z1 % _P * z1z1 % _P
        if u1 == u2:
            if s1 != s2:
                return None
            return self.sqr(a)
        h = (u2 - u1) % _P
        r = (s2 - s1) % _P
        h2 = h * h % _P
        h3 = h2 * h % _P
        v = u1 * h2 % _P
        x3 = (r * r - h3 - 2 * v) % _P
        y3 = (r * (v - x3) - s1 * h3) % _P
        z3 = h * Z1 % _P * Z2 % _P
        return (x3, y3, z3)

    @staticmethod
    def neg_many(raws: list) -> list:
        return [
            None if raw is None else (raw[0], (-raw[1]) % _P, raw[2]) for raw in raws
        ]


class P256Group(Group):
    """The prime-order group of NIST P-256 points."""

    _NAME = "p256"

    def __init__(self) -> None:
        self._identity = P256Point(self, 1, 1, 0)
        self._generator = P256Point(self, _GX, _GY, 1)
        self._kernel: _P256Kernel | None = None

    @staticmethod
    @lru_cache(maxsize=1)
    def instance() -> "P256Group":
        return P256Group()

    @property
    def order(self) -> int:
        return _N

    @property
    def name(self) -> str:
        return self._NAME

    def identity(self) -> P256Point:
        return self._identity

    def generator(self) -> P256Point:
        return self._generator

    @staticmethod
    def _on_curve(x: int, y: int) -> bool:
        return (y * y - (x * x * x + _A * x + _B)) % _P == 0

    def from_bytes(self, data: bytes) -> P256Point:
        if len(data) != 33:
            raise EncodingError(f"P-256 compressed points are 33 bytes, got {len(data)}")
        if data == bytes(33):
            return self._identity
        sign = data[0]
        if sign not in (2, 3):
            raise EncodingError("bad SEC1 compression tag")
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise NotOnGroupError("x-coordinate out of field range")
        rhs = (x * x % _P * x + _A * x + _B) % _P
        # p ≡ 3 (mod 4): the root candidate's square is the residue test.
        y = pow(rhs, _SQRT_EXP, _P)
        if y * y % _P != rhs:
            raise NotOnGroupError("x-coordinate not on the curve")
        if (y & 1) != (sign & 1):
            y = (-y) % _P
        return P256Point(self, x, y, 1)

    def hash_to_group(self, label: bytes) -> P256Point:
        """Try-and-increment: hash to x-candidates until one is on-curve.

        Expected two attempts; the resulting point's discrete log is
        unknown (the x-coordinate is a hash output).
        """
        import hashlib

        counter = 0
        while True:
            digest = hashlib.sha512(
                b"repro.p256.h2g|" + label + counter.to_bytes(4, "big")
            ).digest()
            x = int.from_bytes(digest[:32], "big") % _P
            rhs = (x * x % _P * x + _A * x + _B) % _P
            if jacobi_symbol(rhs, _P) == 1:
                y = pow(rhs, _SQRT_EXP, _P)
                if digest[32] & 1:
                    y = (-y) % _P
                return P256Point(self, x, y, 1)
            counter += 1

    def multiexp_kernel(self) -> _P256Kernel:
        """Jacobian-tuple kernel consumed by :mod:`repro.crypto.multiexp`."""
        if self._kernel is None:
            self._kernel = _P256Kernel(self)
        return self._kernel

    def normalize_many(self, elements) -> list[P256Point]:
        """Batch-normalize points to Z = 1 with one modular inversion.

        Serialization (``to_bytes``) needs affine coordinates, which costs
        an inversion per point when done one at a time; Montgomery batch
        inversion turns a bulletin-board's worth of encodings into one
        ``pow(·, -1, p)`` plus three multiplications per point.
        """
        points = list(elements)
        finite = [pt for pt in points if not pt.is_infinity() and pt.Z != 1]
        if not finite:
            return points
        inverses = dict(
            zip(
                (id(pt) for pt in finite),
                batch_inverse([pt.Z for pt in finite], _P),
            )
        )
        out = []
        for pt in points:
            z_inv = inverses.get(id(pt))
            if z_inv is None:
                out.append(pt)
                continue
            z2 = z_inv * z_inv % _P
            out.append(P256Point(self, pt.X * z2 % _P, pt.Y * z2 % _P * z_inv % _P, 1))
        return out
