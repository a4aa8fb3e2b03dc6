"""libgmp through ``ctypes``: a Schnorr element's membership test and its
variable-base powers in C.

Two primitives, each decided once per process from the host alone:

:func:`jacobi_modulo`
    ``SchnorrGroup.element`` accepts v iff (v|p) = 1.  The pure
    reciprocity loop :func:`repro.utils.numth.jacobi_symbol` takes ≈ 13 µs
    at 128 bits and ≈ 0.38 ms at 2048; GMP's ``mpz_jacobi`` ≈ 1.2 µs and
    ≈ 23 µs, ``ctypes`` included.
:func:`power_product`
    ``Π bᵢ^eᵢ mod p`` as one ``mpz_powm`` per term, the running product
    multiplied and reduced mod p in GMP.  One CPython ``pow`` costs
    ≈ 41 µs at 128 bits and ≈ 25 ms at 2048; a product of n powers here
    ≈ 8 µs + 4 µs a term at 128 bits and ≈ 2.4 ms a term at 2048 (the
    per-term figures of ``python -m repro multiexp``'s ``native_ms``).
    The Schnorr kernel uses it from ``schnorr_group._NATIVE_POWER_MIN_BITS``
    up, for the naive multiexp tier and for ``**``.

Each falls back to the pure code — the reference — wherever libgmp does
not load or fails its known-answer self-test.

Operands are read-only ``mpz_t`` s laid out as gmp.h's ``MPZ_ROINIT_N``
makes them: ``_mp_d`` points at a Python ``bytes``, which GMP reads and
never writes or frees.  ``mpz_jacobi`` needs nothing else, and is faster
that way than through a thread-local scratch filled by ``mpz_import``
(1.2 against 2.0 µs at 64 bits).  A power product packs all its operands
into one ``bytes`` and their heads into another, and writes into two
``mpz_t`` s of its own, ``mpz_init2``-ed on entry and ``mpz_clear``-ed in
a ``finally``: nothing is shared between calls, so threads need no lock
(``ctypes`` drops the GIL for every call).  Nothing is opened at import:
a Schnorr group's first membership test opens the library for
``mpz_jacobi``, and its first multiexp or ``**`` for ``mpz_powm``.
"""

from __future__ import annotations

import ctypes
import struct
from ctypes import POINTER, c_char_p, c_int, c_ulong, c_void_p
from functools import lru_cache
from typing import Callable, Sequence

from repro.crypto.schnorr_group import NAMED_GROUPS

__all__ = ["jacobi_modulo", "power_product"]

# Sonames tried in order, straight through dlopen (no ``find_library``,
# which forks ldconfig to learn the same thing).
_SONAMES = ("libgmp.so.10", "libgmp.so")

# The functions a power product calls, in the order ``_load_powers``
# returns them.
_POWER_SYMBOLS = ("__gmpz_powm", "__gmpz_mul", "__gmpz_mod", "__gmpz_init2", "__gmpz_clear")


class _Mpz(ctypes.Structure):
    """gmp.h's ``__mpz_struct``, only ever built as a read-only operand."""

    _fields_ = [("_mp_alloc", c_int), ("_mp_size", c_int), ("_mp_d", c_char_p)]


class _Scratch(ctypes.Structure):
    """gmp.h's ``__mpz_struct`` as GMP owns it: limbs it allocated, read
    back through a plain pointer."""

    _fields_ = [("_mp_alloc", c_int), ("_mp_size", c_int), ("_mp_d", c_void_p)]


# One read-only operand head, packed as ``_Mpz`` lays it out.
_HEAD = struct.Struct("iiP")


def _symbols(names: Sequence[str]) -> tuple[list, int] | None:
    """The named libgmp functions and its bits per limb, or None."""
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            functions = [getattr(lib, name) for name in names]
            limb_bits = c_int.in_dll(lib, "__gmp_bits_per_limb").value
        except (OSError, AttributeError, ValueError):
            continue  # not installed under this name, or not a usable GMP
        return functions, limb_bits
    return None


def _load_library() -> tuple[Callable[..., int], int] | None:
    """(``mpz_jacobi``, bits per limb) from libgmp, or None."""
    found = _symbols(("__gmpz_jacobi",))
    if found is None:
        return None
    (jacobi,), limb_bits = found
    jacobi.argtypes = [POINTER(_Mpz), POINTER(_Mpz)]
    jacobi.restype = c_int
    return jacobi, limb_bits


def _symbol(jacobi: Callable[..., int], limb_bits: int, n: int) -> Callable[[int], int]:
    """``a ↦ (a|n)`` for 0 ≤ a; n is imported once, a once per call."""
    limb_bytes = limb_bits // 8

    def operand(a: int) -> _Mpz:
        size = -(-a.bit_length() // limb_bits)  # top limb nonzero: normalised
        return _Mpz(0, size, a.to_bytes(size * limb_bytes, "little"))

    modulus = operand(n)
    return lambda a: jacobi(operand(a), modulus)


def _self_test(jacobi: Callable[..., int], limb_bits: int) -> bool:
    """Known answers of both signs at 64 and 2048 bits, and 0 for a shared
    factor.  A safe prime p is ≡ 3 (mod 4), so −1 is a non-residue: for a
    full-width square s, (s|p) = 1 and (p − s|p) = −1."""
    answers = []
    for name in ("p64-sim", "modp-2048"):
        p = NAMED_GROUPS[name]
        symbol, square = _symbol(jacobi, limb_bits, p), pow(p // 3, 2, p)
        answers += [symbol(square), symbol(p - square), symbol(1)]
    p64, p128 = NAMED_GROUPS["p64-sim"], NAMED_GROUPS["p128-sim"]
    answers.append(_symbol(jacobi, limb_bits, p64 * p128)(5 * p64))
    return answers == [1, -1, 1, 1, -1, 1, 0]


@lru_cache(maxsize=1)
def _native() -> tuple[Callable[..., int], int] | None:
    """libgmp's symbol and limb width once it passed the self-test, else
    None — decided once per process, from the host alone."""
    loaded = _load_library()
    return loaded if loaded is not None and _self_test(*loaded) else None


def jacobi_modulo(n: int) -> Callable[[int], int] | None:
    """``a ↦ (a|n)`` on libgmp for one odd modulus n > 1 and 0 ≤ a, or
    None when this host's libgmp is missing or failed its self-test."""
    native = _native()
    return None if native is None else _symbol(*native, n)


def _load_powers() -> tuple[list, int] | None:
    """(``[mpz_powm, mpz_mul, mpz_mod, mpz_init2, mpz_clear]``, bits per
    limb) from libgmp, or None.  Every ``mpz_t`` goes by address."""
    found = _symbols(_POWER_SYMBOLS)
    if found is None:
        return None
    functions, limb_bits = found
    powm, mul, mod, init2, clear = functions
    powm.argtypes = [c_void_p] * 4
    mul.argtypes = mod.argtypes = [c_void_p] * 3
    init2.argtypes = [c_void_p, c_ulong]
    clear.argtypes = [c_void_p]
    for function in functions:
        function.restype = None
    return functions, limb_bits


def _product(
    functions: list, limb_bits: int, p: int
) -> Callable[[Sequence[int], Sequence[int]], int]:
    """``(bases, exponents) ↦ Π bᵢ^eᵢ mod p`` for one odd modulus p, at
    least one term and 0 ≤ bᵢ, eᵢ < p.

    Every operand gets a slot of p's width in one ``bytes`` and a
    normalised read-only head in another; the first power lands in the
    accumulator, each later one in a term that is multiplied in and the
    product reduced mod p.  Both ``mpz_t`` s are this call's own.
    """
    powm, mul, mod, init2, clear = functions
    limb_bytes = limb_bits // 8
    limbs = -(-p.bit_length() // limb_bits)
    width = limbs * limb_bytes
    modulus = p.to_bytes(width, "little")
    head, stride = _HEAD.pack, 2 * _HEAD.size
    addressof, string_at = ctypes.addressof, ctypes.string_at

    def product(bases: Sequence[int], exponents: Sequence[int]) -> int:
        operands = [x for pair in zip(bases, exponents) for x in pair]
        data = b"".join([x.to_bytes(width, "little") for x in operands]) + modulus
        at = ctypes.cast(c_char_p(data), c_void_p).value
        heads = b"".join(
            [head(0, -(-x.bit_length() // limb_bits), at + i * width) for i, x in enumerate(operands)]
        ) + head(0, limbs, at + len(operands) * width)
        first = ctypes.cast(c_char_p(heads), c_void_p).value
        m = first + len(operands) * _HEAD.size
        acc, term = _Scratch(), _Scratch()
        a, t = addressof(acc), addressof(term)
        init2(a, 2 * limbs * limb_bits)
        init2(t, limbs * limb_bits)
        try:
            powm(a, first, first + _HEAD.size, m)
            for i in range(first + stride, m, stride):
                powm(t, i, i + _HEAD.size, m)
                mul(a, a, t)
                mod(a, a, m)
            return int.from_bytes(string_at(acc._mp_d, acc._mp_size * limb_bytes), "little")
        finally:
            clear(t)
            clear(a)

    return product


def _powers_self_test(functions: list, limb_bits: int) -> bool:
    """Known answers at 64, 128 and 2048 bits.  For a safe prime p = 2q + 1
    and a full-width square s, Euler's criterion gives s^q = 1 and
    (p − s)^q = p − 1 (p ≡ 3 mod 4: −1 is a non-residue), so their product
    is p − 1 too.  On modp-2048, full-width powers would cost 5 ms, so
    short exponents there: 2^2000 = 1 << 2000 (a one-limb base, no
    reduction) and (p − 1)^65537 = p − 1, whose product is p − 2^2000."""
    answers, expected = [], []
    for name in ("p64-sim", "p128-sim"):
        p = NAMED_GROUPS[name]
        q, square = p // 2, pow(p // 3, 2, p)
        product = _product(functions, limb_bits, p)
        answers += [product([square], [q]), product([p - square], [q])]
        answers.append(product([square, p - square, 4], [q, q, q]))
        expected += [1, p - 1, p - 1]
    p = NAMED_GROUPS["modp-2048"]
    answers.append(_product(functions, limb_bits, p)([2, p - 1], [2000, 65537]))
    expected.append(p - (1 << 2000))
    return answers == expected


@lru_cache(maxsize=1)
def _native_powers() -> tuple[list, int] | None:
    """libgmp's power functions and limb width once they passed the
    self-test, else None — decided once per process, from the host alone."""
    loaded = _load_powers()
    return loaded if loaded is not None and _powers_self_test(*loaded) else None


def power_product(p: int) -> Callable[[Sequence[int], Sequence[int]], int] | None:
    """``(bases, exponents) ↦ Π bᵢ^eᵢ mod p`` on libgmp for one odd modulus
    p, at least one term and 0 ≤ bᵢ, eᵢ < p; or None when this host's
    libgmp is missing or failed its self-test."""
    native = _native_powers()
    return None if native is None else _product(*native, p)
