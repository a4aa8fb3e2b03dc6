"""The Jacobi symbol on libgmp: a Schnorr element's membership test in C.

``SchnorrGroup.element`` accepts v iff (v|p) = 1.  The pure reciprocity
loop :func:`repro.utils.numth.jacobi_symbol` takes ≈ 13 µs at 128 bits and
≈ 0.38 ms at 2048; GMP's ``mpz_jacobi`` ≈ 1.2 µs and ≈ 23 µs, ``ctypes``
included.  The pure loop stays the reference and the fallback wherever
libgmp does not load or fails its known-answer self-test.

Operands are read-only ``mpz_t`` s laid out as gmp.h's ``MPZ_ROINIT_N``
makes them: ``_mp_d`` points at a Python ``bytes``, which GMP reads and
never writes or frees.  No ``mpz_init``/``mpz_clear``, no scratch
``mpz_t`` for threads to share (``ctypes`` drops the GIL for the call),
and faster than a thread-local scratch filled by ``mpz_import`` (1.2
against 2.0 µs at 64 bits).  Nothing is opened at import: the first
:func:`jacobi_modulo` — a Schnorr group's first membership test — does.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, c_char_p, c_int
from functools import lru_cache
from typing import Callable

from repro.crypto.schnorr_group import NAMED_GROUPS

__all__ = ["jacobi_modulo"]

# Sonames tried in order, straight through dlopen (no ``find_library``,
# which forks ldconfig to learn the same thing).
_SONAMES = ("libgmp.so.10", "libgmp.so")


class _Mpz(ctypes.Structure):
    """gmp.h's ``__mpz_struct``, only ever built as a read-only operand."""

    _fields_ = [("_mp_alloc", c_int), ("_mp_size", c_int), ("_mp_d", c_char_p)]


def _load_library() -> tuple[Callable[..., int], int] | None:
    """(``mpz_jacobi``, bits per limb) from libgmp, or None."""
    for soname in _SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            jacobi = getattr(lib, "__gmpz_jacobi")
            limb_bits = c_int.in_dll(lib, "__gmp_bits_per_limb").value
        except (OSError, AttributeError, ValueError):
            continue  # not installed under this name, or not a usable GMP
        jacobi.argtypes = [POINTER(_Mpz), POINTER(_Mpz)]
        jacobi.restype = c_int
        return jacobi, limb_bits
    return None


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
