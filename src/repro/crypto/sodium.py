"""ristretto255 on libsodium: the same group, computed in C.

The paper's Section 6 curve numbers come from a native library
(curve25519-dalek); :mod:`repro.crypto.ristretto` is 255-bit Edwards
arithmetic in CPython and stays the *reference* — the specification the
tests compare against, the fallback on hosts without libsodium, and the
shape P-256 and the Schnorr groups keep.  This module is a fifth
:class:`~repro.crypto.group.Group`, not a second protocol path: the same
``name``, order, generator and ``h``, hence the same parameter
fingerprint, transcripts, wire bytes and releases.

An element *is* its canonical 32-byte encoding.  libsodium's ristretto255
API works on encodings (every call decodes, computes, re-encodes), so
``to_bytes``, ``==`` and ``hash`` are free and Fiat–Shamir absorbs a point
without a square root; in exchange a single addition costs ≈ 17 µs — four
times the Python kernel's extended-coordinate add — which is why
:class:`_SodiumKernel` prices a power at three additions and the multiexp
cost model then never builds Straus tables or Pippenger buckets out of
native additions.  Measured here (libsodium 1.0.18): base mult 17 µs,
variable mult 50 µs, add/sub 17 µs, ``is_valid_point`` 5 µs, against
≈ 470 µs for one pure ``Com(x, r)`` including its encoding.

The class invariant is that a :class:`SodiumPoint` only ever holds bytes
that libsodium validated (:meth:`SodiumRistrettoGroup.from_bytes`) or
produced.  libsodium reports "the result is the identity" with the same
−1 it uses for "the input is not a point", the output left all-zero; since
all-zero *is* the identity's canonical encoding and in a prime-order group
``P^e`` is the identity only for ``e ≡ 0`` or ``P`` the identity, those
two cases are answered before the call and any −1 that remains is an
invalid input, which raises.

Nothing here runs at import: the library is opened by
:meth:`SodiumRistrettoGroup.instance`, which only
``core.params._resolve_group("ristretto255")`` calls.
"""

from __future__ import annotations

import ctypes
import hashlib
from ctypes import c_char_p, c_int
from functools import lru_cache
from typing import Sequence

from repro.crypto.group import Group, GroupElement
from repro.crypto.ristretto import ELL, RistrettoGroup, label_digest
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import RNG, default_rng

__all__ = ["SodiumRistrettoGroup", "SodiumPoint"]

# Sonames tried in order, straight through dlopen: ``find_library`` would
# fork ldconfig/gcc subprocesses to learn the same thing.
_SONAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so")

_Buffer = ctypes.c_char * 32
_IDENTITY = bytes(32)

# (symbol, number of byte-pointer arguments) — every one returns an int.
_SYMBOLS = (
    ("crypto_core_ristretto255_is_valid_point", 1),
    ("crypto_core_ristretto255_add", 3),
    ("crypto_core_ristretto255_sub", 3),
    ("crypto_core_ristretto255_from_hash", 2),
    ("crypto_scalarmult_ristretto255", 3),
    ("crypto_scalarmult_ristretto255_base", 2),
)


def _load_library() -> ctypes.CDLL | None:
    """libsodium with the ristretto255 entry points declared, or None."""
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            for symbol, arity in _SYMBOLS:
                function = getattr(lib, symbol)
                function.argtypes = [c_char_p] * arity
                function.restype = c_int
            lib.sodium_init.argtypes = []
            lib.sodium_init.restype = c_int
        except (OSError, AttributeError):
            # Not installed under this name, or a minimal build without
            # the ristretto255 symbols.
            continue
        if lib.sodium_init() >= 0:
            return lib
    return None


class SodiumPoint(GroupElement):
    """A ristretto255 element held as its canonical encoding."""

    __slots__ = ("_group", "_bytes")

    def __init__(self, group: "SodiumRistrettoGroup", encoding: bytes) -> None:
        self._group = group
        self._bytes = encoding

    @property
    def group(self) -> "SodiumRistrettoGroup":
        return self._group

    def combine(self, other: GroupElement) -> "SodiumPoint":
        if not isinstance(other, SodiumPoint):
            raise NotOnGroupError("cannot combine elements of different groups")
        return SodiumPoint(self._group, self._group._add(self._bytes, other._bytes))

    def __truediv__(self, other: GroupElement) -> "SodiumPoint":
        if not isinstance(other, SodiumPoint):
            return NotImplemented
        return SodiumPoint(self._group, self._group._sub(self._bytes, other._bytes))

    def scale(self, exponent: int) -> "SodiumPoint":
        return SodiumPoint(self._group, self._group._scale(self._bytes, exponent))

    def invert(self) -> "SodiumPoint":
        return SodiumPoint(self._group, self._group._sub(_IDENTITY, self._bytes))

    def to_bytes(self) -> bytes:
        return self._bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SodiumPoint):
            return NotImplemented
        return self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash((id(self._group), self._bytes))


class _SodiumKernel:
    """Multiexp kernel over encodings; its hints steer the cost model.

    ``pow_muls`` is the whole point: one variable-base power costs three
    native additions (50 µs against 17 µs), so per-term scale-and-add is
    ≈ 4 additions a term where Straus or Pippenger spend 30–60.  The
    kernel is complete all the same — ``Group.product`` folds through
    ``mul`` and an explicit ``algorithm=`` runs any tier on it.
    """

    __slots__ = ("_group", "identity_raw", "mul", "from_raw")

    native_pow = True
    pow_muls = 3.0
    op_overhead = 0.0  # bookkeeping is noise next to a 17 µs addition
    neg_muls = 1.0  # negation is one subtraction from the identity

    def __init__(self, group: "SodiumRistrettoGroup") -> None:
        self._group = group
        self.identity_raw = _IDENTITY
        self.mul = group._add
        self.from_raw = group._wrap

    @staticmethod
    def to_raw(point: SodiumPoint) -> bytes:
        return point._bytes

    def sqr(self, a: bytes) -> bytes:
        return self.mul(a, a)

    def neg_many(self, raws: list[bytes]) -> list[bytes]:
        sub = self._group._sub
        return [sub(_IDENTITY, raw) for raw in raws]


class _DirectPair:
    """``a^x · b^y`` for two fixed bases with no tables: two native powers
    (the base-point one when ``a`` is the generator) and one addition."""

    __slots__ = ("_group", "_a", "_b")

    def __init__(self, group: "SodiumRistrettoGroup", a: SodiumPoint, b: SodiumPoint) -> None:
        self._group = group
        self._a = group.check_element(a)._bytes
        self._b = group.check_element(b)._bytes

    def dual_many(self, eas: Sequence[int], ebs: Sequence[int]) -> list[SodiumPoint]:
        group = self._group
        scale, add, wrap = group._scale, group._add, group._wrap
        a, b = self._a, self._b
        out = []
        for ea, eb in zip(eas, ebs):
            left, right = scale(a, ea), scale(b, eb)
            if left == _IDENTITY:
                left = right
            elif right != _IDENTITY:
                left = add(left, right)
            out.append(wrap(left))
        return out


# RFC 9496 appendix A: the generator, twice the generator, and the image of
# SHA-512("Ristretto is traditionally a short shot of espresso coffee")
# under the one-way map; a non-canonical and a non-square encoding that
# decoding must reject.
_GENERATOR = bytes.fromhex("e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76")
_KAT_DOUBLE = bytes.fromhex("6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919")
_KAT_HASHED = bytes.fromhex("3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46")
_KAT_INVALID = (
    bytes.fromhex("00" + "ff" * 31),
    bytes.fromhex("26948d35ca62e643e26a83177332e6b6afeb9d08e4268b650f1f5bbd8d81d371"),
)


class SodiumRistrettoGroup(Group):
    """ristretto255 computed by libsodium (one instance per process)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._ffi_valid = lib.crypto_core_ristretto255_is_valid_point
        self._ffi_add = lib.crypto_core_ristretto255_add
        self._ffi_sub = lib.crypto_core_ristretto255_sub
        self._ffi_from_hash = lib.crypto_core_ristretto255_from_hash
        self._ffi_mult = lib.crypto_scalarmult_ristretto255
        self._ffi_base_mult = lib.crypto_scalarmult_ristretto255_base
        self._identity = SodiumPoint(self, _IDENTITY)
        self._generator = SodiumPoint(self, _GENERATOR)
        self._kernel = _SodiumKernel(self)

    @staticmethod
    @lru_cache(maxsize=1)
    def instance() -> "SodiumRistrettoGroup | None":
        """The native group, or None when this host cannot provide it.

        None means libsodium did not load under any known soname, lacks
        the ristretto255 symbols, or failed the known-answer self-test;
        the caller then uses the pure-Python reference.  Decided once per
        process, from the host alone.
        """
        lib = _load_library()
        if lib is None:
            return None
        group = SodiumRistrettoGroup(lib)
        return group if group._self_test() else None

    def _self_test(self) -> bool:
        """Known answers (RFC 9496 vectors and the identity convention)."""
        g = _GENERATOR
        try:
            digest = hashlib.sha512(
                b"Ristretto is traditionally a short shot of espresso coffee"
            ).digest()
            hashed = _Buffer()
            return (
                self._scale(g, 1) == g
                and self._scale(g, 2) == _KAT_DOUBLE
                and self._scale(_KAT_DOUBLE, ELL - 1) == self._sub(_IDENTITY, _KAT_DOUBLE)
                and self._add(g, g) == _KAT_DOUBLE
                and self._sub(_KAT_DOUBLE, g) == g
                and self._sub(g, g) == _IDENTITY
                and self._scale(g, ELL) == _IDENTITY
                and self._ffi_from_hash(hashed, digest) == 0
                and hashed.raw == _KAT_HASHED
                and all(self._ffi_valid(good) == 1 for good in (g, _KAT_DOUBLE, _IDENTITY))
                and not any(self._ffi_valid(bad) for bad in _KAT_INVALID)
            )
        except NotOnGroupError:
            return False

    # Operations on encodings ----------------------------------------------

    def _wrap(self, encoding: bytes) -> SodiumPoint:
        return SodiumPoint(self, encoding)

    def _add(self, a: bytes, b: bytes) -> bytes:
        out = _Buffer()
        if self._ffi_add(out, a, b):
            raise NotOnGroupError("libsodium rejected a ristretto255 operand")
        return out.raw

    def _sub(self, a: bytes, b: bytes) -> bytes:
        out = _Buffer()
        if self._ffi_sub(out, a, b):
            raise NotOnGroupError("libsodium rejected a ristretto255 operand")
        return out.raw

    def _scale(self, point: bytes, exponent: int) -> bytes:
        e = exponent % ELL
        if not e or point == _IDENTITY:
            # libsodium answers both with −1; see the module docstring.
            return _IDENTITY
        if e == 1:
            return point  # Com(1, r): half of all coin and share commitments
        out = _Buffer()
        scalar = e.to_bytes(32, "little")
        if point == _GENERATOR:
            status = self._ffi_base_mult(out, scalar)
        else:
            status = self._ffi_mult(out, scalar, point)
        if status:
            raise NotOnGroupError("libsodium rejected a ristretto255 operand")
        return out.raw

    # Group interface --------------------------------------------------------

    @property
    def order(self) -> int:
        return ELL

    @property
    def name(self) -> str:
        return RistrettoGroup._NAME

    def identity(self) -> SodiumPoint:
        return self._identity

    def generator(self) -> SodiumPoint:
        return self._generator

    def from_bytes(self, data: bytes) -> SodiumPoint:
        if len(data) != 32:
            raise EncodingError(f"ristretto encodings are 32 bytes, got {len(data)}")
        data = bytes(data)
        # libsodium 1.0.18 masks bit 255 away instead of rejecting it, which
        # would give one point two encodings — and here the encoding is the
        # element.  Every other canonicity rule is the library's.
        if data[31] & 0x80:
            raise NotOnGroupError("non-canonical ristretto encoding")
        if not self._ffi_valid(data):
            raise NotOnGroupError("invalid ristretto encoding")
        return SodiumPoint(self, data)

    def from_uniform_bytes(self, data: bytes) -> SodiumPoint:
        """The reference's map from 64 uniform bytes, computed natively.

        ``RistrettoGroup.from_uniform_bytes`` is the *inverse* of RFC 9496's
        one-way map (see its docstring), and libsodium's ``from_hash`` is
        the RFC's, so one subtraction from the identity lands on the
        repo's own point — and therefore on the same ``h``.
        """
        if len(data) != 64:
            raise EncodingError("from_uniform_bytes requires exactly 64 bytes")
        out = _Buffer()
        if self._ffi_from_hash(out, bytes(data)):
            raise EncodingError("libsodium could not map the bytes to a point")
        return SodiumPoint(self, self._sub(_IDENTITY, out.raw))

    def hash_to_group(self, label: bytes) -> SodiumPoint:
        """Same label → same element as ``RistrettoGroup.hash_to_group``."""
        return self.from_uniform_bytes(label_digest(label))

    def random_element(self, rng: RNG | None = None) -> SodiumPoint:
        return self.from_uniform_bytes(default_rng(rng).random_bytes(64))

    def multiexp_kernel(self) -> _SodiumKernel:
        return self._kernel

    def fixed_base_pair(self, a: GroupElement, b: GroupElement) -> _DirectPair:
        return _DirectPair(self, a, b)
