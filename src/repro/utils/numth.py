"""Number-theoretic primitives used by the group and commitment layers.

Everything here is implemented from scratch on Python integers: the crypto
substrate of the paper (Schnorr groups over Z*p, Pedersen commitments,
Σ-protocols) needs primality testing, safe-prime generation, modular
inverses, Legendre/Jacobi symbols and modular square roots — nothing more.

Miller–Rabin here is used with 64 rounds, giving error probability at most
4^-64 per composite, far below the 2^-80 bar usually taken as "negligible"
for protocol parameters.
"""

from __future__ import annotations

import random

from repro.errors import ParameterError

__all__ = [
    "is_probable_prime",
    "miller_rabin",
    "next_safe_prime",
    "random_safe_prime",
    "inverse_mod",
    "legendre_symbol",
    "jacobi_symbol",
    "sqrt_mod",
    "crt_pair",
]

# Small primes for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
]


def miller_rabin(n: int, rounds: int = 64, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test.

    Deterministic witnesses are used for n < 3.3e24 (a well-known witness
    set), falling back to random witnesses beyond that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def composite_witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    if n < 3317044064679887385961981:
        # Deterministic for this range (Sorenson & Webster witness set).
        witnesses = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    else:
        rng = rng or random.Random(n)  # deterministic per n, adequate for tests
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]

    return not any(composite_witness(a % n) for a in witnesses if a % n not in (0, 1, n - 1))


def is_probable_prime(n: int) -> bool:
    """Return True if ``n`` is (probably) prime."""
    return miller_rabin(n)


def next_safe_prime(start: int) -> int:
    """Return the smallest safe prime p >= start (p and (p-1)/2 both prime)."""
    if start < 5:
        return 5
    p = start | 1
    while True:
        if p % 12 == 11 and is_probable_prime((p - 1) // 2) and is_probable_prime(p):
            return p
        p += 2


def random_safe_prime(bits: int, rng: random.Random) -> int:
    """Sample a random safe prime with exactly ``bits`` bits.

    Used only for parameter generation; the library ships pre-generated,
    verified parameters so this is never on a protocol's hot path.
    """
    if bits < 8:
        raise ParameterError(f"safe primes need at least 8 bits, got {bits}")
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if p.bit_length() != bits:
            continue
        if is_probable_prime(q) and is_probable_prime(p):
            return p


def inverse_mod(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``.

    Raises :class:`ParameterError` when gcd(a, m) != 1.
    """
    a %= m
    if a == 0:
        raise ParameterError("0 has no modular inverse")
    try:
        return pow(a, -1, m)
    except ValueError as exc:  # pragma: no cover - non-coprime input
        raise ParameterError(f"{a} not invertible mod {m}") from exc


def batch_inverse(values: list[int], m: int) -> list[int]:
    """Modular inverses of all ``values`` mod ``m`` with one inversion.

    Montgomery's trick: prefix-multiply, invert the total once, then
    unwind — 3(n-1) multiplications plus a single :func:`inverse_mod`
    instead of n inversions.  Raises :class:`ParameterError` if any value
    is not invertible.
    """
    if not values:
        return []
    reduced = [value % m for value in values]
    if any(value == 0 for value in reduced):
        raise ParameterError("0 has no modular inverse")
    prefix = [0] * len(reduced)
    acc = 1
    for i, value in enumerate(reduced):
        acc = acc * value % m
        prefix[i] = acc
    inv = inverse_mod(acc, m)
    out = [0] * len(reduced)
    for i in range(len(reduced) - 1, 0, -1):
        out[i] = prefix[i - 1] * inv % m
        inv = inv * reduced[i] % m
    out[0] = inv
    return out


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p: 1, -1, or 0.

    Euler's criterion, one full-width ``pow``: the reference the tests
    hold :func:`jacobi_symbol` against, not what hot paths call.
    """
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n: 1, -1, or 0.

    Equal to :func:`legendre_symbol` for prime n, but by quadratic
    reciprocity — a Euclid loop, no exponentiation (÷3 at 64 bits, ÷70
    at 2048).
    """
    if n <= 0 or not n & 1:
        raise ParameterError(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2|n) = -1 iff n ≡ ±3 (mod 8)
            result = -result
        if a & n & 3 == 3:  # reciprocity flips iff both ≡ 3 (mod 4)
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int:
    """A square root of ``a`` modulo odd prime ``p`` (Tonelli–Shanks).

    Raises :class:`ParameterError` if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        # The candidate's square is the residue test: one modexp, not two.
        root = pow(a, (p + 1) // 4, p)
        if root * root % p != a:
            raise ParameterError("not a quadratic residue")
        return root
    if jacobi_symbol(a, p) != 1:
        raise ParameterError("not a quadratic residue")

    # Tonelli-Shanks general case.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        for i in range(1, m):
            t2 = (t2 * t2) % p
            if t2 == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Chinese remaindering for two coprime moduli."""
    g = inverse_mod(m1, m2)
    diff = (r2 - r1) % m2
    return (r1 + m1 * ((diff * g) % m2)) % (m1 * m2)
