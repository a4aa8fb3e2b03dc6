"""Shared low-level utilities: number theory, encoding, timing, randomness."""

from repro.utils.numth import (
    is_probable_prime,
    next_safe_prime,
    inverse_mod,
    legendre_symbol,
    jacobi_symbol,
    sqrt_mod,
)
from repro.utils.encoding import (
    int_to_bytes,
    bytes_to_int,
    encode_length_prefixed,
    decode_length_prefixed,
)
from repro.utils.rng import SystemRNG, SeededRNG, RNG, default_rng
from repro.utils.timing import Stopwatch, StageTimer

__all__ = [
    "is_probable_prime",
    "next_safe_prime",
    "inverse_mod",
    "legendre_symbol",
    "jacobi_symbol",
    "sqrt_mod",
    "int_to_bytes",
    "bytes_to_int",
    "encode_length_prefixed",
    "decode_length_prefixed",
    "SystemRNG",
    "SeededRNG",
    "RNG",
    "default_rng",
    "Stopwatch",
    "StageTimer",
]
