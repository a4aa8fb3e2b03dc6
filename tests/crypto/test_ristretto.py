"""ristretto255: official test vectors, group laws, encoding validation."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ristretto import ELL, P, RistrettoGroup, sqrt_ratio_m1
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import SeededRNG

# Small multiples of the generator, from the ristretto255 specification
# (draft-irtf-cfrg-ristretto255-decaf448 appendix).
GENERATOR_MULTIPLES = {
    0: "0000000000000000000000000000000000000000000000000000000000000000",
    1: "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    2: "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    3: "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    4: "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    5: "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    6: "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    7: "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    8: "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    9: "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    10: "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    11: "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    12: "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    13: "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    14: "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    15: "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
}

scalars = st.integers(min_value=0, max_value=2**130)


class TestSpecVectors:
    @pytest.mark.parametrize("k,expected", sorted(GENERATOR_MULTIPLES.items()))
    def test_generator_multiples(self, ristretto, k, expected):
        point = ristretto.generator() ** k
        assert point.to_bytes().hex() == expected

    def test_decode_spec_vectors(self, ristretto):
        for k, encoded in GENERATOR_MULTIPLES.items():
            if k == 0:
                continue
            point = ristretto.from_bytes(bytes.fromhex(encoded))
            assert point == ristretto.generator() ** k

    @pytest.mark.parametrize(
        "e", [16, 17, 0x10F0, 0xF00F, 2**252, ELL - 1, ELL, ELL + 1, -1, -(2**130)]
    )
    def test_scale_matches_double_and_add(self, ristretto, e):
        """The windowed raw-tuple ladder against bitwise double-and-add on
        point objects (zero digits, top-window-only digits, reduction)."""
        base = ristretto.generator() ** 7
        expected = ristretto.identity()
        for bit in bin(e % ELL)[2:]:
            expected = expected.double()
            if bit == "1":
                expected = expected.combine(base)
        assert base**e == expected
        assert (base**e).to_bytes() == expected.to_bytes()

    def test_order(self, ristretto):
        assert ristretto.order == ELL
        assert ristretto.generator() ** ELL == ristretto.identity()


class TestGroupLaws:
    @given(a=scalars, b=scalars)
    @settings(max_examples=15, deadline=None)
    def test_exponent_addition(self, ristretto, a, b):
        g = ristretto.generator()
        assert (g ** a) * (g ** b) == g ** (a + b)

    @given(a=scalars)
    @settings(max_examples=10, deadline=None)
    def test_inverse(self, ristretto, a):
        x = ristretto.generator() ** a
        assert (x * ~x) == ristretto.identity()

    @given(a=scalars)
    @settings(max_examples=10, deadline=None)
    def test_double_consistency(self, ristretto, a):
        x = ristretto.generator() ** (a % ELL)
        assert x.double() == x * x

    @given(a=scalars)
    @settings(max_examples=15, deadline=None)
    def test_encode_decode_roundtrip(self, ristretto, a):
        x = ristretto.generator() ** a
        assert ristretto.from_bytes(x.to_bytes()) == x

    def test_coset_equality(self, ristretto):
        """Internally different representations of equal elements compare equal."""
        g = ristretto.generator()
        a = (g ** 7) * (g ** 5)
        b = g ** 12
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_bytes() == b.to_bytes()


def recomputed_encoding(point) -> bytes:
    """``to_bytes`` from the coordinates alone, bypassing the stored encoding."""
    return type(point)(point.group, point.X, point.Y, point.Z, point.T).to_bytes()


class TestDecodedPointsKeepTheirBytes:
    """``from_bytes`` stores the validated input as the point's encoding:
    decoding is injective on accepted inputs, so those bytes are what the
    coordinates encode to.  The store lives on the returned point, so an
    input that is rejected stores nothing anywhere."""

    def test_spec_vectors(self, ristretto):
        for encoded in GENERATOR_MULTIPLES.values():
            data = bytes.fromhex(encoded)
            point = ristretto.from_bytes(data)
            assert point.to_bytes() == data == recomputed_encoding(point)

    def test_random_points(self, ristretto):
        rng = SeededRNG("codec")
        for _ in range(200):
            data = ristretto.random_element(rng).to_bytes()
            point = ristretto.from_bytes(data)
            assert point.to_bytes() == data == recomputed_encoding(point)

    def test_accepted_junk_roundtrips_and_rejected_junk_raises(self, ristretto):
        rng = SeededRNG("junk-codec")
        accepted = 0
        for _ in range(60):
            data = bytearray(rng.random_bytes(32))
            data[31] &= 0x7F
            data[0] &= 0xFE
            try:
                point = ristretto.from_bytes(bytes(data))
            except NotOnGroupError:
                continue
            accepted += 1
            assert point.to_bytes() == bytes(data) == recomputed_encoding(point)
        assert accepted >= 5

    def test_stored_encoding_is_a_copy(self, ristretto):
        data = bytearray(bytes.fromhex(GENERATOR_MULTIPLES[3]))
        point = ristretto.from_bytes(data)
        data[0] ^= 0xFF
        assert point.to_bytes().hex() == GENERATOR_MULTIPLES[3]

    def test_arithmetic_results_do_not_inherit_an_encoding(self, ristretto):
        point = ristretto.from_bytes(bytes.fromhex(GENERATOR_MULTIPLES[2]))
        for derived, k in ((point * point, 4), (~point * point, 0), (point**5, 10)):
            assert derived.to_bytes().hex() == GENERATOR_MULTIPLES[k]


class TestEncodingValidation:
    def test_wrong_length(self, ristretto):
        with pytest.raises(EncodingError):
            ristretto.from_bytes(b"\x00" * 31)

    def test_non_canonical_rejected(self, ristretto):
        # s >= p is non-canonical.
        bad = (P + 1).to_bytes(32, "little")
        with pytest.raises(NotOnGroupError):
            ristretto.from_bytes(bad)

    def test_negative_s_rejected(self, ristretto):
        # s odd ("negative") encodings are invalid by construction.
        bad = (1).to_bytes(32, "little")
        with pytest.raises(NotOnGroupError):
            ristretto.from_bytes(bad)

    def test_random_strings_mostly_rejected(self, ristretto):
        rng = SeededRNG("junk")
        rejected = 0
        for _ in range(20):
            data = bytearray(rng.random_bytes(32))
            data[31] &= 0x7F  # keep below 2^255 to hit the curve checks
            data[0] &= 0xFE  # even (sign ok) — still must be on-curve
            try:
                ristretto.from_bytes(bytes(data))
            except (NotOnGroupError, EncodingError):
                rejected += 1
        assert rejected >= 10  # at most ~1/2 of strings decode


class TestHashToGroup:
    def test_deterministic(self, ristretto):
        assert ristretto.hash_to_group(b"x") == ristretto.hash_to_group(b"x")
        assert ristretto.hash_to_group(b"x") != ristretto.hash_to_group(b"y")

    def test_output_valid(self, ristretto):
        h = ristretto.hash_to_group(b"pedersen")
        assert ristretto.from_bytes(h.to_bytes()) == h
        assert h ** ELL == ristretto.identity()

    def test_from_uniform_bytes_requires_64(self, ristretto):
        with pytest.raises(EncodingError):
            ristretto.from_uniform_bytes(b"\x00" * 32)

    def test_from_uniform_bytes_valid(self, ristretto):
        rng = SeededRNG("u")
        for _ in range(5):
            point = ristretto.from_uniform_bytes(rng.random_bytes(64))
            assert ristretto.from_bytes(point.to_bytes()) == point


# RFC 9496 appendix A.3: label -> encoding of its one-way map applied to
# SHA-512(label).
RFC_HASH_TO_GROUP = {
    "Ristretto is traditionally a short shot of espresso coffee": (
        "3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46"
    ),
    "made with the normal amount of ground coffee but extracted with": (
        "f26e5b6f7d362d2d2a94c5d0e7602cb4773c95a2e5c31a64f133189fa76ed61b"
    ),
    "about half the amount of water in the same amount of time": (
        "006ccd2a9e6867e6a2c5cea83d3302cc9de128dd2a9a57dd8ee7b9d7ffe02826"
    ),
    "by using a finer grind.": (
        "f8f0c87cf237953c5890aec3998169005dae3eca1fbb04548c635953c817f92a"
    ),
    "Just pulling a normal shot short will produce a weaker shot": (
        "e2705652ff9f5e44d3e841bf1c251cf7dddb77d140870d1ab2ed64f1a9ce8628"
    ),
}


class TestNotTheRfcMap:
    """``from_uniform_bytes`` is the *inverse* of RFC 9496's one-way map:
    ``SQRT_AD_MINUS_ONE`` is the non-negative root where the RFC fixes the
    negative one.  Pinned because ``h`` — and with it every ristretto255
    fingerprint and golden digest — depends on it (DESIGN.md "Group
    backends and how one is chosen")."""

    @pytest.mark.parametrize("label,expected", sorted(RFC_HASH_TO_GROUP.items()))
    def test_inverse_of_the_rfc_vectors(self, ristretto, label, expected):
        point = ristretto.from_uniform_bytes(hashlib.sha512(label.encode()).digest())
        assert (~point).to_bytes().hex() == expected
        assert point.to_bytes().hex() != expected

    def test_the_constant_is_the_other_root(self):
        from repro.crypto.ristretto import D, SQRT_AD_MINUS_ONE

        rfc = 25063068953384623474111414158702152701244531502492656460079210482610430750235
        assert SQRT_AD_MINUS_ONE == P - rfc
        assert SQRT_AD_MINUS_ONE * SQRT_AD_MINUS_ONE % P == (-D - 1) % P
        assert SQRT_AD_MINUS_ONE % 2 == 0 and rfc % 2 == 1

    def test_hash_to_group_is_from_uniform_bytes_of_the_labelled_digest(self, ristretto):
        digest = hashlib.sha512(b"repro.ristretto.h2g|" + b"repro.pedersen.h").digest()
        assert ristretto.hash_to_group(b"repro.pedersen.h") == ristretto.from_uniform_bytes(digest)


class TestSqrtRatio:
    def test_square_case(self):
        was_square, r = sqrt_ratio_m1(4, 1)
        assert was_square
        assert (r * r) % P == 4

    def test_ratio_case(self):
        u, v = 9, 4
        was_square, r = sqrt_ratio_m1(u, v)
        assert was_square
        assert (v * r * r) % P == u

    def test_zero(self):
        was_square, r = sqrt_ratio_m1(0, 5)
        assert was_square and r == 0

    @given(st.integers(min_value=1, max_value=2**64))
    @settings(max_examples=30)
    def test_consistency(self, u):
        was_square, r = sqrt_ratio_m1(u, 1)
        if was_square:
            assert (r * r) % P == u % P
        else:
            from repro.crypto.ristretto import SQRT_M1

            assert (r * r) % P == (SQRT_M1 * u) % P
        assert r % 2 == 0  # non-negative convention
