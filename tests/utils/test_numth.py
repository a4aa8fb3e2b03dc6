"""Number theory: primality, inverses, Legendre and Jacobi symbols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.schnorr_group import NAMED_GROUPS
from repro.errors import ParameterError
from repro.utils.numth import (
    batch_inverse,
    inverse_mod,
    is_probable_prime,
    jacobi_symbol,
    legendre_symbol,
    miller_rabin,
)
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101, 257, 65537, 2**61 - 1]
SMALL_COMPOSITES = [1, 4, 9, 15, 21, 100, 561, 1105, 6601, 2**61 - 3]
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911]


class TestPrimality:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_primes_recognized(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", SMALL_COMPOSITES)
    def test_composites_rejected(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAELS)
    def test_carmichael_numbers_rejected(self, n):
        """Fermat pseudoprimes must not fool Miller-Rabin."""
        assert not miller_rabin(n)

    def test_negative_and_zero(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_agrees_with_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial


class TestInverse:
    @given(st.integers(min_value=1, max_value=10**6))
    def test_inverse_mod_prime(self, a):
        p = 1_000_003
        if a % p == 0:
            return
        inv = inverse_mod(a, p)
        assert (a * inv) % p == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ParameterError):
            inverse_mod(0, 17)

    def test_non_coprime_raises(self):
        with pytest.raises(ParameterError):
            inverse_mod(6, 9)


class TestLegendre:
    @pytest.mark.parametrize("p", [11, 13, 101, 1_000_003, 2**61 - 1])
    def test_squares_are_residues(self, p):
        for a in (2, 3, 5, 10):
            assert legendre_symbol((a * a) % p, p) == 1

    def test_legendre_zero(self):
        assert legendre_symbol(0, 13) == 0
        assert legendre_symbol(26, 13) == 0

    def test_non_residue(self):
        # 2 is a non-residue mod 13 (13 ≡ 5 mod 8).
        assert legendre_symbol(2, 13) == -1


class TestJacobiSymbol:
    """``jacobi_symbol`` is what decides group membership of received
    bytes; Euler's criterion (``legendre_symbol``) is the reference."""

    @pytest.mark.parametrize("name", sorted(NAMED_GROUPS))
    def test_equals_euler_criterion_on_protocol_primes(self, name):
        import random

        p = NAMED_GROUPS[name]
        rng = random.Random(f"jacobi|{name}")
        # One Euler test at 2048 bits is ~25 ms; keep that leg short.
        draws = 12 if p.bit_length() > 1024 else 200
        values = [0, 1, 2, 4, p - 1, p, p + 1, -1, -2, -p, 3 * p + 2, p * p + 4]
        values += [rng.randrange(-p, 3 * p) for _ in range(draws)]
        for a in values:
            assert jacobi_symbol(a, p) == legendre_symbol(a, p), (name, a)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 257, 65537])
    def test_equals_euler_criterion_exhaustively_on_small_primes(self, p):
        for a in range(-p, min(2 * p + 1, 600)):
            assert jacobi_symbol(a, p) == legendre_symbol(a, p), (a, p)

    @pytest.mark.parametrize(
        "a, n, expected",
        [(2, 15, 1), (7, 15, -1), (3, 9, 0), (5, 21, 1), (2, 21, -1),
         (1001, 9907, -1), (19, 45, 1), (8, 21, -1), (0, 1, 1), (0, 3, 0)],
    )
    def test_composite_modulus_table(self, a, n, expected):
        assert jacobi_symbol(a, n) == expected

    @given(a=st.integers(-10**6, 10**6), m=st.integers(0, 500), n=st.integers(0, 500))
    @settings(max_examples=100)
    def test_multiplicative_in_the_modulus(self, a, m, n):
        m, n = 2 * m + 1, 2 * n + 1
        assert jacobi_symbol(a, m * n) == jacobi_symbol(a, m) * jacobi_symbol(a, n)

    @pytest.mark.parametrize("n", [0, -1, -15, 2, 4, 16, 2**64])
    def test_even_or_non_positive_modulus_raises(self, n):
        with pytest.raises(ParameterError):
            jacobi_symbol(3, n)


class TestBatchInverse:
    def test_matches_individual_inverses(self):
        m = 10007
        values = [1, 2, 3, 9999, 123, 2, 5000]
        assert batch_inverse(values, m) == [inverse_mod(v, m) for v in values]

    def test_empty(self):
        assert batch_inverse([], 97) == []

    def test_unreduced_and_negative(self):
        m = 101
        assert batch_inverse([102, -1], m) == [inverse_mod(1, m), inverse_mod(100, m)]

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            batch_inverse([3, 0, 5], 97)
