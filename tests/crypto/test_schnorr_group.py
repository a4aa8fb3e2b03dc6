"""Schnorr group backend: laws, membership, named parameters."""

import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import gmp, schnorr_group
from repro.crypto.schnorr_group import NAMED_GROUPS, SchnorrGroup
from repro.errors import EncodingError, NotOnGroupError, ParameterError
from repro.utils.numth import is_probable_prime, legendre_symbol
from repro.utils.rng import SeededRNG

scalars = st.integers(min_value=0, max_value=2**70)


@pytest.fixture(params=["pure", "libgmp"])
def membership_path(request, monkeypatch):
    """Which code computes a fresh group's (v|p): the pure loop (libgmp
    made unavailable for this test) or libgmp (skipped on a host without
    it).  Yields a counter of the pure loop's calls."""
    if request.param == "pure":
        monkeypatch.setattr(gmp, "_native", lru_cache(maxsize=1)(lambda: None))
    elif gmp._native() is None:
        pytest.skip("libgmp is not loadable on this host")
    calls = []
    pure = schnorr_group.jacobi_symbol

    def counting(a, n):
        calls.append(n)
        return pure(a, n)

    monkeypatch.setattr(schnorr_group, "jacobi_symbol", counting)
    return request.param, calls


def fresh_group(name: str) -> SchnorrGroup:
    """The named group built anew: it decides its membership path at its
    own first test, under whatever the calling test arranged."""
    return SchnorrGroup.named.__wrapped__(name)


class TestNamedGroups:
    @pytest.mark.parametrize("name", sorted(NAMED_GROUPS))
    def test_named_groups_are_safe_primes(self, name):
        p = NAMED_GROUPS[name]
        assert is_probable_prime(p), name
        assert is_probable_prime((p - 1) // 2), name

    def test_named_is_cached(self):
        assert SchnorrGroup.named("p64-sim") is SchnorrGroup.named("p64-sim")

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            SchnorrGroup.named("nope")

    def test_non_safe_prime_rejected(self):
        with pytest.raises(ParameterError):
            SchnorrGroup(15, name="bad")
        with pytest.raises(ParameterError):
            SchnorrGroup(13, name="prime-but-not-safe")  # (13-1)/2 = 6

    def test_named_trusts_the_pinned_table_but_a_callers_modulus_is_checked(self, monkeypatch):
        """``named()`` must not re-prove a constant the test above proves
        (3 s of Miller–Rabin per process on modp-2048); anything that is
        not a table entry still goes through the safe-prime check."""
        from repro.crypto import schnorr_group

        calls = []

        def counting(n):
            calls.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(schnorr_group, "is_probable_prime", counting)
        # Past the lru_cache (session fixtures compare groups by identity,
        # so the cache itself is left alone): build every entry afresh.
        build = SchnorrGroup.named.__wrapped__
        for name, p in NAMED_GROUPS.items():
            assert build(name).modulus == p
        assert calls == []
        for bad in (15, 13):
            with pytest.raises(ParameterError):
                SchnorrGroup(bad, name="bad")
        assert calls, "direct construction must run the primality check"
        p64 = NAMED_GROUPS["p64-sim"]
        assert SchnorrGroup(p64, name="mine").order == (p64 - 1) // 2
        assert p64 in calls

    def test_generator_has_prime_order(self, group64):
        g = group64.generator()
        assert g ** group64.order == group64.identity()
        assert g != group64.identity()


class TestGroupLaws:
    @given(a=scalars, b=scalars)
    @settings(max_examples=40)
    def test_exponent_addition(self, group64, a, b):
        g = group64.generator()
        assert (g ** a) * (g ** b) == g ** (a + b)

    @given(a=scalars, b=scalars)
    @settings(max_examples=40)
    def test_exponent_multiplication(self, group64, a, b):
        g = group64.generator()
        assert (g ** a) ** b == g ** (a * b)

    @given(a=scalars)
    @settings(max_examples=40)
    def test_inverse(self, group64, a):
        g = group64.generator()
        x = g ** a
        assert x * ~x == group64.identity()
        assert x / x == group64.identity()

    @given(a=scalars)
    @settings(max_examples=40)
    def test_exponent_reduction_mod_order(self, group64, a):
        g = group64.generator()
        assert g ** a == g ** (a % group64.order)

    def test_identity_neutral(self, group64):
        x = group64.random_element(SeededRNG("e"))
        assert x * group64.identity() == x
        assert group64.identity().is_identity()


class TestMembershipAndEncoding:
    @given(a=scalars)
    @settings(max_examples=30)
    def test_encode_roundtrip(self, group64, a):
        x = group64.generator() ** a
        assert group64.from_bytes(x.to_bytes()) == x

    def test_wrong_length_rejected(self, group64):
        with pytest.raises(EncodingError):
            group64.from_bytes(b"\x01")

    def test_non_residue_rejected(self, group64):
        # Find a quadratic non-residue and check element() rejects it.
        p = group64.modulus
        value = next(v for v in range(2, 100) if legendre_symbol(v, p) == -1)
        with pytest.raises(NotOnGroupError):
            group64.element(value)

    @pytest.mark.parametrize("name", sorted(NAMED_GROUPS))
    def test_from_bytes_accepts_exactly_what_eulers_criterion_accepts(
        self, name, membership_path
    ):
        """The Jacobi-symbol membership test — pure loop or libgmp — has
        the accept set of the Euler-criterion one it replaced, and the same
        exception types."""
        import random

        path, pure_calls = membership_path
        group = fresh_group(name)
        p, width = group.modulus, group.element_bytes
        rng = random.Random(f"accept-set|{name}")
        draws = 8 if p.bit_length() > 1024 else 120
        values = [0, 1, 2, 3, 4, p - 2, p - 1, p, p + 1, (1 << (8 * width)) - 1]
        values += [rng.randrange(2, p) for _ in range(draws)]
        values += [pow(rng.randrange(2, p), 2, p) for _ in range(4)]  # residues for sure
        verdicts = set()
        for value in values:
            data = value.to_bytes(width, "big")
            in_gq = 1 <= value < p and legendre_symbol(value, p) == 1
            verdicts.add(in_gq)
            if in_gq:
                assert group.from_bytes(data).value == value
                assert group.element(value).to_bytes() == data
            else:
                with pytest.raises(NotOnGroupError):
                    group.from_bytes(data)
                with pytest.raises(NotOnGroupError):
                    group.element(value)
        assert verdicts == {True, False}
        for data in (b"", bytes(width - 1), bytes(width + 1)):
            with pytest.raises(EncodingError):
                group.from_bytes(data)
        assert (len(pure_calls) > 0) == (path == "pure")

    def test_concurrent_decodes_get_the_pure_verdicts(self):
        """``ctypes`` releases the GIL inside ``mpz_jacobi``: 8 threads
        decoding interleaved residues and non-residues on one group must
        each get exactly the reference verdicts."""
        group = fresh_group("p256-sim")
        p, width = group.modulus, group.element_bytes
        rng = SeededRNG("concurrent-membership")
        values = []
        for _ in range(120):
            square = pow(rng.field_element(p - 2) + 2, 2, p)
            values += [square, p - square]  # p ≡ 3 (mod 4): −1 is a non-residue
        expected = [legendre_symbol(v, p) == 1 for v in values]
        assert expected.count(True) == expected.count(False)
        start, results = threading.Barrier(8, timeout=30), {}

        def decode(worker: int) -> None:
            mine = values[worker:] + values[:worker]
            start.wait()
            verdicts = []
            for _ in range(5):
                for value in mine:
                    try:
                        group.from_bytes(value.to_bytes(width, "big"))
                        verdicts.append(True)
                    except NotOnGroupError:
                        verdicts.append(False)
            results[worker] = verdicts

        threads = [threading.Thread(target=decode, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker in range(8):
            assert results[worker] == (expected[worker:] + expected[:worker]) * 5

    def test_out_of_range_rejected(self, group64):
        with pytest.raises(NotOnGroupError):
            group64.element(0)
        with pytest.raises(NotOnGroupError):
            group64.element(group64.modulus)

    def test_cross_group_operations_rejected(self, group64, group128):
        with pytest.raises(NotOnGroupError):
            group64.generator() * group128.generator()


class TestHashToGroup:
    def test_membership(self, group64):
        h = group64.hash_to_group(b"label")
        assert h ** group64.order == group64.identity()

    def test_deterministic_and_label_separated(self, group64):
        assert group64.hash_to_group(b"a") == group64.hash_to_group(b"a")
        assert group64.hash_to_group(b"a") != group64.hash_to_group(b"b")

    def test_group_separated(self, group64, group128):
        a = group64.hash_to_group(b"x")
        b = group128.hash_to_group(b"x")
        assert a.to_bytes() != b.to_bytes()


class TestMultiScale:
    @given(st.lists(scalars, min_size=0, max_size=6))
    @settings(max_examples=25)
    def test_matches_naive(self, group64, exps):
        rng = SeededRNG("ms")
        bases = [group64.random_element(rng) for _ in exps]
        naive = group64.identity()
        for base, e in zip(bases, exps):
            naive = naive * base ** e
        assert group64.multi_scale(bases, exps) == naive

    def test_length_mismatch(self, group64):
        with pytest.raises(ParameterError):
            group64.multi_scale([group64.generator()], [1, 2])
