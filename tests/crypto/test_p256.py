"""NIST P-256 backend: domain parameters, laws, encoding, integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.p256 import _A, _B, _P, P256Group
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import SeededRNG

scalars = st.integers(min_value=0, max_value=2**130)


@pytest.fixture(scope="module")
def p256():
    return P256Group.instance()


def _on_curve(x, y):
    """y^2 == x^3 - 3x + b mod p."""
    return (y * y - (x * x * x + _A * x + _B)) % _P == 0


class TestDomainParameters:
    def test_generator_on_curve(self, p256):
        assert _on_curve(*p256.generator().affine())

    def test_generator_order(self, p256):
        assert p256.generator() ** p256.order == p256.identity()
        assert p256.generator() ** 1 == p256.generator()

    def test_known_2g(self, p256):
        """2·G for P-256 (public test vector)."""
        x, _ = (p256.generator() ** 2).affine()
        assert x == 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978

    def test_order_is_prime(self, p256):
        from repro.utils.numth import is_probable_prime

        assert is_probable_prime(p256.order)


class TestGroupLaws:
    @given(a=scalars, b=scalars)
    @settings(max_examples=8, deadline=None)
    def test_exponent_addition(self, p256, a, b):
        g = p256.generator()
        assert (g ** a) * (g ** b) == g ** (a + b)

    @given(a=scalars)
    @settings(max_examples=8, deadline=None)
    def test_inverse(self, p256, a):
        x = p256.generator() ** a
        assert x * ~x == p256.identity()

    def test_identity_neutral(self, p256):
        g = p256.generator()
        assert g * p256.identity() == g
        assert p256.identity().is_infinity()

    def test_double_matches_add(self, p256):
        g = p256.generator()
        assert g.double() == g * g


class TestEncoding:
    @given(a=scalars)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip(self, p256, a):
        point = p256.generator() ** a
        assert p256.from_bytes(point.to_bytes()) == point

    def test_identity_roundtrip(self, p256):
        assert p256.from_bytes(p256.identity().to_bytes()).is_infinity()

    def test_compression_tag_checked(self, p256):
        data = bytearray(p256.generator().to_bytes())
        data[0] = 0x05
        with pytest.raises(EncodingError):
            p256.from_bytes(bytes(data))

    def test_off_curve_x_rejected(self, p256):
        # Find an x with no curve point (about half of all x).
        for x in range(2, 50):
            data = bytes([2]) + x.to_bytes(32, "big")
            try:
                p256.from_bytes(data)
            except NotOnGroupError:
                break
        else:  # pragma: no cover
            pytest.fail("no off-curve x found in range")

    def test_wrong_length(self, p256):
        with pytest.raises(EncodingError):
            p256.from_bytes(b"\x02" * 10)


def _euler_root(x: int, *, strict: bool):
    """The curve's y for x the way it was found before the one-modexp
    path — Euler's criterion first, then the p ≡ 3 (mod 4) root — or
    None.  ``strict`` is hash-to-group's ``== 1``; decoding used ``!= -1``."""
    from repro.crypto.p256 import _A, _B, _P
    from repro.utils.numth import legendre_symbol

    rhs = (x * x * x + _A * x + _B) % _P
    symbol = legendre_symbol(rhs, _P)
    if symbol == -1 or (strict and symbol != 1):
        return None
    y = pow(rhs, (_P + 1) // 4, _P)
    assert y * y % _P == rhs
    return y


def _euler_decompress(data: bytes):
    """Affine (x, y), or the exception class the old decoder raised."""
    if data[0] not in (2, 3):
        return EncodingError
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        return NotOnGroupError
    y = _euler_root(x, strict=False)
    if y is None:
        return NotOnGroupError
    return x, y if (y & 1) == (data[0] & 1) else (-y) % _P


class TestSameAcceptSetAsEulersCriterion:
    """Decompression computes the root candidate once and checks its
    square; ``hash_to_group`` screens with the Jacobi symbol.  Neither may
    accept, reject or return anything the Legendre-symbol path did not."""

    def test_decompression_matches_the_euler_path(self, p256):
        import random

        rng = random.Random("p256-accept-set")
        xs = [0, 1, 2, 3, _P - 1, _P, _P + 1, 2**256 - 1]
        xs += [rng.randrange(_P) for _ in range(150)]
        xs += [(p256.generator() ** rng.randrange(1, p256.order)).affine()[0] for _ in range(6)]
        outcomes = set()
        for x in xs:
            for tag in (2, 3, 4):
                data = bytes([tag]) + x.to_bytes(32, "big")
                expected = _euler_decompress(data)
                if isinstance(expected, type):
                    outcomes.add(expected)
                    with pytest.raises(expected):
                        p256.from_bytes(data)
                else:
                    outcomes.add("point")
                    point = p256.from_bytes(data)
                    assert point.affine() == expected
                    assert _on_curve(*expected)
                    assert point.to_bytes() == data
        assert outcomes == {"point", NotOnGroupError, EncodingError}

    def test_hash_to_group_returns_the_same_points(self, p256):
        import hashlib

        pinned = {  # produced by the legendre_symbol + sqrt_mod implementation
            b"": "02a00e753f91780ad3b09b54422e1077c3c51c302ad8aec89122fba11d03854d10",
            b"repro.pedersen.h": "03be153372e8f5576531294dd31b4d96e54121a135debba141a2c6f4d602c35c87",
            b"label": "029fd2e8c4abe285e0dc19364f6f881100f6cec6a352d9071873f56e3fb8c9fc3e",
        }
        for label, encoded in pinned.items():
            assert p256.hash_to_group(label).to_bytes().hex() == encoded
        for i in range(24):
            label = b"h2g-%d" % i
            counter = 0
            while True:  # first candidate x the Euler path puts on the curve
                digest = hashlib.sha512(
                    b"repro.p256.h2g|" + label + counter.to_bytes(4, "big")
                ).digest()
                x = int.from_bytes(digest[:32], "big") % _P
                y = _euler_root(x, strict=True)
                if y is not None:
                    break
                counter += 1
            if digest[32] & 1:
                y = (-y) % _P
            assert p256.hash_to_group(label).affine() == (x, y)


class TestHashToGroup:
    def test_on_curve_and_deterministic(self, p256):
        h = p256.hash_to_group(b"pedersen-h")
        assert p256.from_bytes(h.to_bytes()) == h
        assert h == p256.hash_to_group(b"pedersen-h")
        assert h != p256.hash_to_group(b"other")

    def test_prime_order_subgroup(self, p256):
        h = p256.hash_to_group(b"x")
        assert h ** p256.order == p256.identity()


class TestIntegration:
    def test_pedersen_and_bit_proofs_over_p256(self, p256):
        from repro.crypto.fiat_shamir import Transcript
        from repro.crypto.pedersen import PedersenParams
        from repro.crypto.sigma.or_bit import prove_bit, verify_bit

        pp = PedersenParams(p256)
        rng = SeededRNG("p256")
        for bit in (0, 1):
            c, o = pp.commit_fresh(bit, rng)
            proof = prove_bit(pp, c, o, Transcript("t"), rng)
            verify_bit(pp, c, proof, Transcript("t"))

    def test_homomorphism_over_p256(self, p256):
        from repro.crypto.pedersen import PedersenParams

        pp = PedersenParams(p256)
        lhs = pp.commit(3, 4) * pp.commit(5, 6)
        assert lhs.element == pp.commit(8, 10).element

    def test_multiexp_over_p256(self, p256):
        g = p256.generator()
        assert p256.multi_scale([g ** 2, g ** 3], [5, 4]) == g ** 22
