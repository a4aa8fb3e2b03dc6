"""Randomness sources.

Every probabilistic component in the library takes an :class:`RNG` so that

* production code defaults to :class:`SystemRNG` (``secrets``-quality), and
* tests inject :class:`SeededRNG` for reproducibility.

``SeededRNG`` is a deterministic expand-from-seed construction built on
SHA-256 in counter mode.  It is *not* the Mersenne Twister: protocol tests
exercise rejection-sampling paths whose statistics should match production,
and a hash-based stream keeps the two code paths identical.
"""

from __future__ import annotations

import abc
import hashlib
import secrets

from repro.errors import ParameterError

__all__ = ["RNG", "SystemRNG", "SeededRNG", "default_rng"]


class RNG(abc.ABC):
    """Abstract source of uniform randomness."""

    @abc.abstractmethod
    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` uniform bytes."""

    def randbits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits)."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ParameterError("bound must be positive")
        # randbits inlined: one random_bytes call per attempt, same bytes.
        bits = bound.bit_length()
        nbytes = (bits + 7) // 8
        shift = nbytes * 8 - bits
        random_bytes, from_bytes = self.random_bytes, int.from_bytes
        while True:
            value = from_bytes(random_bytes(nbytes), "big") >> shift
            if value < bound:
                return value

    def randrange(self, start: int, stop: int) -> int:
        """Uniform integer in [start, stop)."""
        if stop <= start:
            raise ParameterError("empty range")
        return start + self.randbelow(stop - start)

    def field_element(self, q: int) -> int:
        """Uniform element of Z_q."""
        return self.randbelow(q)

    def nonzero_field_element(self, q: int) -> int:
        """Uniform element of Z_q \\ {0}."""
        return 1 + self.randbelow(q - 1)

    def coin(self) -> int:
        """A single unbiased bit."""
        return self.randbits(1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


class SystemRNG(RNG):
    """Cryptographically secure randomness from the operating system."""

    def random_bytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)


class SeededRNG(RNG):
    """Deterministic SHA-256 counter-mode stream, for tests and simulations.

    The stream for a given seed is stable across Python versions (unlike
    ``random.Random``'s float-based helpers), which keeps recorded protocol
    transcripts reproducible.
    """

    def __init__(self, seed: int | bytes | str) -> None:
        if isinstance(seed, int):
            if seed < 0:
                raise ParameterError("an int seed must be non-negative")
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.sha256(b"repro.seeded-rng" + seed).digest()
        self._counter = 0  # blocks hashed so far
        # Unread stream bytes are ``_buffer[_offset:]``; a draw moves the
        # offset and slices, and only a draw that runs past the end hashes
        # the blocks it needs.
        self._buffer = b""
        self._offset = 0

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ParameterError("byte count must be non-negative")
        start = self._offset
        end = start + n
        if end <= len(self._buffer):
            self._offset = end
            return self._buffer[start:end]
        key, counter = self._key, self._counter
        stop = counter + (end - len(self._buffer) + 31) // 32
        buffer = self._buffer[start:] + hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        if stop > counter + 1:  # a long draw joins its blocks instead of re-copying
            buffer += b"".join(
                hashlib.sha256(key + c.to_bytes(8, "big")).digest()
                for c in range(counter + 1, stop)
            )
        self._counter = stop
        self._buffer = buffer
        self._offset = n
        return buffer[:n]

    def fork(self, label: str) -> "SeededRNG":
        """An independent child stream, e.g. one per simulated party."""
        return SeededRNG(self._key + label.encode())


def default_rng(rng: RNG | None = None) -> RNG:
    """Normalize an optional RNG argument (None means SystemRNG)."""
    return rng if rng is not None else SystemRNG()
