"""ristretto255 on libsodium against the pure-Python reference.

Every test here runs the same inputs through ``RistrettoGroup`` (the
``ristretto`` fixture — the specification) and ``SodiumRistrettoGroup``
and requires the same *bytes*, the same exception types and the same RNG
position.  The module is skipped on a host that cannot load libsodium;
there the name ``"ristretto255"`` resolves to the reference anyway (see
``tests/core/test_group_resolution.py``).
"""

import hashlib

import pytest

from repro.core.params import setup
from repro.crypto import multiexp
from repro.crypto.multiexp import multi_exponentiation, select_algorithm, shared_base_powers
from repro.crypto.pedersen import PedersenParams
from repro.crypto.ristretto import ELL
from repro.crypto.sodium import SodiumPoint, SodiumRistrettoGroup
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import SeededRNG

# RFC 9496 appendix A.3: encodings every decoder must reject.
BAD_ENCODINGS = [
    # non-canonical field encodings
    "00ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    # negative field elements
    "0100000000000000000000000000000000000000000000000000000000000000",
    "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "ed57ffd8c914fb201471d1c3d245ce3c746fcbe63a3679d51b6a516ebebe0e20",
    "c34c4e1826e5d403b78e246e88aa051c36ccf0aafebffe137d148a2bf9104562",
    "c940e5a4404157cfb1628b108db051a8d439e1a421394ec4ebccb9ec92a8ac78",
    "47cfc5497c53dc8e61c91d17fd626ffb1c49e2bca94eed052281b510b1117a24",
    "f1c6165d33367351b0da8f6e4511010c68174a03b6581212c71c0e1d026c3c72",
    "87260f7a2f12495118360f02c26a470f450dadf34a413d21042b43b9d93e1309",
    # non-square x^2
    "26948d35ca62e643e26a83177332e6b6afeb9d08e4268b650f1f5bbd8d81d371",
    "4eac077a713c57b4f4397629a4145982c661f48044dd3f96427d40b147d9742f",
    "de6a7b00deadc788eb6b6c8d20c0ae96c2f2019078fa604fee5b87d6e989ad7b",
    "bcab477be20861e01e4a0e295284146a510150d9817763caf1a6f4b422d67042",
    "2a292df7e32cab522bd09a75d28e86ef45a9d0f8d4bf2f4a2d1ad3f6e04c8b6a",
    "f4a9e534fc0d216c44b218fa0c42d99635a0127ee2e53c712f70609649fdff22",
    "8268436f8c4126196cf64b3c7ddbda90746a378625f9813dd9b8457077256731",
    "2810e5cbc2cc4d4eece54f61c6f69758e289aa7ab440b3cbeaa21995c2f4232b",
    # negative x·y
    "3eb858e78f5a7254d8c9731174a94f76755fd3941c0ac93735c07ba14579630e",
    "a45fdc55c76448c049a1ab33f17023edfb2be3581e9c7aade8a6125215e04220",
    "d483fe813c6ba647ebbfd3ec41adca1c6130c2beeee9d9bf065c8d151c5f396e",
    "8a2e1d30050198c65a54483123960ccc38aef6848e1ec8f5f780e8523769ba32",
    "32888462f8b486c68ad7dd9610be5192bbeaf3b443951ac1a8118419d9fa097b",
    "227142501b9d4355ccba290404bde41575b037693cef1f438c47f8fbf35d1165",
    "5c37cc491da847cfeb9281d407efc41e15144c876e0170b499a96a22ed31e01e",
    "445425117cb8c90edcbc7c1cc0e74f747f2c1efa5630a967c64f287792a48a4b",
    # s = −1, which gives y = 0
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
]

EDGE_SCALARS = [0, 1, 2, ELL - 1, ELL, ELL + 1, -1, -(2**130), 2**252, 2**300 + 7]


@pytest.fixture(scope="module")
def native():
    group = SodiumRistrettoGroup.instance()
    if group is None:
        pytest.skip("libsodium with ristretto255 is not loadable on this host")
    return group


@pytest.fixture(scope="module")
def pairs(native, ristretto):
    """The same 12 random elements and scalars, as (pure, native) twins."""
    rng = SeededRNG("sodium-differential")
    scalars = [rng.field_element(ELL) for _ in range(12)]
    pure = [ristretto.generator() ** k for k in scalars]
    return scalars, pure, [native.from_bytes(p.to_bytes()) for p in pure]


def same(pure_element, native_element) -> bool:
    assert isinstance(native_element, SodiumPoint)
    return pure_element.to_bytes() == native_element.to_bytes()


class TestGroupConstants:
    def test_identity_name_order_generator(self, native, ristretto):
        assert native.name == ristretto.name == "ristretto255"
        assert native.order == ristretto.order == ELL
        assert native.scalar_bytes == ristretto.scalar_bytes
        assert same(ristretto.identity(), native.identity())
        assert same(ristretto.generator(), native.generator())
        assert native.identity().is_identity()
        assert not native.generator().is_identity()

    @pytest.mark.parametrize("label", [b"repro.pedersen.h", b"", b"another.h", b"x" * 200])
    def test_hash_to_group_is_the_repo_map(self, native, ristretto, label):
        assert same(ristretto.hash_to_group(label), native.hash_to_group(label))

    def test_pedersen_h_and_params_fingerprint(self, native, ristretto):
        assert same(PedersenParams(ristretto).h, PedersenParams(native).h)
        assert (
            PedersenParams(ristretto).transcript_bytes()
            == PedersenParams(native).transcript_bytes()
        )
        kwargs = dict(num_provers=2, dimension=3, nb_override=16)
        assert (
            setup(1.0, 2**-10, group=ristretto, **kwargs).fingerprint()
            == setup(1.0, 2**-10, group=native, **kwargs).fingerprint()
        )

    def test_random_element_same_element_same_draws(self, native, ristretto):
        rng_pure, rng_native = SeededRNG("elements"), SeededRNG("elements")
        for _ in range(8):
            assert same(ristretto.random_element(rng_pure), native.random_element(rng_native))
        assert rng_pure.random_bytes(16) == rng_native.random_bytes(16)

    def test_from_uniform_bytes(self, native, ristretto):
        rng = SeededRNG("uniform")
        for _ in range(8):
            data = rng.random_bytes(64)
            assert same(ristretto.from_uniform_bytes(data), native.from_uniform_bytes(data))
        with pytest.raises(EncodingError):
            native.from_uniform_bytes(b"\x00" * 32)

    def test_random_scalar_same_draws(self, native, ristretto):
        assert native.random_scalar(SeededRNG("s")) == ristretto.random_scalar(SeededRNG("s"))


class TestElementMethods:
    def test_combine_divide_invert(self, pairs):
        _, pure, native_points = pairs
        for (a, b), (na, nb) in zip(zip(pure, pure[1:]), zip(native_points, native_points[1:])):
            assert same(a * b, na * nb)
            assert same(a / b, na / nb)
            assert same(~a, ~na)
            assert same(a.combine(b.invert()), na.combine(nb.invert()))

    def test_scale(self, pairs):
        scalars, pure, native_points = pairs
        for e, a, na in zip(scalars[::-1] + EDGE_SCALARS, pure * 2, native_points * 2):
            assert same(a**e, na**e)

    def test_generator_powers_take_the_base_point_routine(self, native, ristretto):
        for e in EDGE_SCALARS + [7, 2**200 + 1]:
            assert same(ristretto.generator() ** e, native.generator() ** e)

    def test_equality_and_hash_are_those_of_the_bytes(self, native, pairs):
        _, _, native_points = pairs
        a = native_points[0]
        twin = native.from_bytes(a.to_bytes())
        assert a == twin and hash(a) == hash(twin) and a is not twin
        assert a != native_points[1]
        assert len({a, twin, native_points[1]}) == 2
        assert a != a.to_bytes()

    def test_backends_do_not_mix(self, pairs):
        _, pure, native_points = pairs
        with pytest.raises(NotOnGroupError):
            native_points[0].combine(pure[0])
        with pytest.raises(TypeError):
            native_points[0] / pure[0]
        assert native_points[0] != pure[0]
        with pytest.raises(NotOnGroupError):
            native_points[0].group.check_element(pure[0])


class TestIdentityConvention:
    """libsodium returns −1 with an all-zero output when a result is the
    identity; all-zero is the identity's canonical encoding."""

    def test_zero_scalars_and_multiples_of_the_order(self, native, pairs):
        _, _, native_points = pairs
        identity = native.identity()
        for point in (native.generator(), native_points[0], identity):
            for e in (0, ELL, -ELL, 5 * ELL):
                assert point**e == identity
        assert identity**12345 == identity
        assert (identity**12345).to_bytes() == bytes(32)

    def test_sums_that_cancel(self, native, ristretto, pairs):
        _, pure, native_points = pairs
        a, na = pure[3], native_points[3]
        assert (na * ~na).is_identity() and same(a * ~a, na * ~na)
        assert (na / na).is_identity()
        assert na * native.identity() == na
        assert ~native.identity() == native.identity()
        assert (na**5 * na ** (ELL - 5)).is_identity()

    def test_commitments_and_products_that_hit_the_identity(self, native):
        params = PedersenParams(native)
        assert params.commit(0, 0).element.is_identity()
        assert params.commit(ELL, -ELL).element.is_identity()
        assert params.pow_g(0).is_identity() and params.pow_h(ELL).is_identity()
        g, h = params.g, params.h
        assert native.multi_scale([g, g, h, h], [3, ELL - 3, 9, -9]).is_identity()
        assert native.multi_scale([g, h], [0, 0]).is_identity()
        assert native.multi_scale([], []).is_identity()
        assert native.product([]).is_identity()
        assert native.product([g, ~g]).is_identity()


class TestDecoding:
    @pytest.mark.parametrize("encoded", BAD_ENCODINGS)
    def test_rfc_bad_encodings_rejected_by_both(self, native, ristretto, encoded):
        for group in (ristretto, native):
            with pytest.raises(NotOnGroupError):
                group.from_bytes(bytes.fromhex(encoded))

    def test_bit_255_is_rejected_not_masked(self, native, ristretto):
        """libsodium 1.0.18's ``is_valid_point`` ignores the top bit; a
        second accepted encoding of one point would break ``==`` here."""
        for point in (native.generator(), native.identity(), native.generator() ** 9):
            data = bytearray(point.to_bytes())
            data[31] |= 0x80
            for group in (ristretto, native):
                with pytest.raises(NotOnGroupError):
                    group.from_bytes(bytes(data))

    @pytest.mark.parametrize("length", [0, 31, 33, 64])
    def test_wrong_length_is_an_encoding_error_on_both(self, native, ristretto, length):
        for group in (ristretto, native):
            with pytest.raises(EncodingError):
                group.from_bytes(b"\x00" * length)

    def test_random_strings_same_verdict(self, native, ristretto):
        rng = SeededRNG("junk-both")
        accepted = 0
        for i in range(200):
            data = bytearray(rng.random_bytes(32))
            if i % 4:  # most of them past the cheap canonicity checks
                data[31] &= 0x7F
                data[0] &= 0xFE
            try:
                pure = ristretto.from_bytes(bytes(data))
            except NotOnGroupError:
                with pytest.raises(NotOnGroupError):
                    native.from_bytes(bytes(data))
                continue
            accepted += 1
            assert native.from_bytes(bytes(data)).to_bytes() == pure.to_bytes() == bytes(data)
        assert 10 <= accepted <= 190

    def test_decoded_point_owns_its_bytes(self, native):
        data = bytearray(native.generator().to_bytes())
        point = native.from_bytes(data)
        data[0] ^= 0xFF
        assert point == native.generator()
        assert type(point.to_bytes()) is bytes


class TestPedersen:
    @pytest.fixture(scope="class")
    def both(self, native, ristretto):
        return PedersenParams(ristretto), PedersenParams(native)

    def test_commit_pow_g_pow_h(self, both):
        pure, fast = both
        rng = SeededRNG("pedersen-both")
        values = EDGE_SCALARS + [rng.field_element(ELL) for _ in range(6)]
        for x, r in zip(values, reversed(values)):
            assert pure.commit(x, r).to_bytes() == fast.commit(x, r).to_bytes()
            assert same(pure.pow_g(x), fast.pow_g(x))
            assert same(pure.pow_h(x), fast.pow_h(x))
            assert (
                pure.commitment_to_constant(x).to_bytes()
                == fast.commitment_to_constant(x).to_bytes()
            )

    def test_commit_many_and_commit_vector(self, both):
        pure, fast = both
        rng = SeededRNG("many-both")
        values = [0, 1, 1, 0] + [rng.field_element(ELL) for _ in range(6)]
        randomness = [rng.field_element(ELL) for _ in values]
        assert [c.to_bytes() for c in pure.commit_many(values, randomness)] == [
            c.to_bytes() for c in fast.commit_many(values, randomness)
        ]
        rng_pure, rng_fast = SeededRNG("vector"), SeededRNG("vector")
        cs_pure, os_pure = pure.commit_vector([0, 1, 0, 1, 1], rng_pure)
        cs_fast, os_fast = fast.commit_vector([0, 1, 0, 1, 1], rng_fast)
        assert os_pure == os_fast
        assert [c.to_bytes() for c in cs_pure] == [c.to_bytes() for c in cs_fast]
        assert rng_pure.random_bytes(8) == rng_fast.random_bytes(8)

    def test_native_params_build_no_tables(self, both):
        _, fast = both
        assert not hasattr(fast._fixed, "tables")

    def test_one_minus_and_product(self, both):
        pure, fast = both
        cp, cf = pure.commit(1, 77), fast.commit(1, 77)
        assert pure.one_minus(cp).to_bytes() == fast.one_minus(cf).to_bytes()
        assert (
            pure.product([cp, cp, pure.commit(5, 6)]).to_bytes()
            == fast.product([cf, cf, fast.commit(5, 6)]).to_bytes()
        )


class TestMultiexp:
    @pytest.mark.parametrize("n", [1, 2, 64, 300])
    def test_multi_scale(self, native, ristretto, n):
        rng = SeededRNG(f"multi-{n}")
        scalars = [rng.field_element(ELL) for _ in range(n)]
        bases = [ristretto.generator() ** rng.randbits(64) for _ in range(n)]
        twins = [native.from_bytes(b.to_bytes()) for b in bases]
        assert same(ristretto.multi_scale(bases, scalars), native.multi_scale(twins, scalars))

    def test_shared_base_powers(self, pairs):
        scalars, pure, native_points = pairs
        exps = scalars[:3] + [0, -1, ELL]
        for a, na in zip(pure[:3], native_points[:3]):
            for x, y in zip(shared_base_powers(a, exps), shared_base_powers(na, exps)):
                assert same(x, y)

    def test_product_and_normalize_many(self, native, ristretto, pairs):
        _, pure, native_points = pairs
        assert same(ristretto.product(pure), native.product(native_points))
        assert native.normalize_many(native_points) == native_points

    def test_cost_model_never_builds_a_chain_from_native_additions(self, native):
        kernel = native.multiexp_kernel()
        for n in (2, 3, 16, 96, 300, 4096, 262144):
            for bits in (128, 252):
                assert (
                    select_algorithm(
                        n,
                        bits,
                        native_pow=kernel.native_pow,
                        op_overhead=kernel.op_overhead,
                        neg_muls=kernel.neg_muls,
                        pow_muls=kernel.pow_muls,
                    )
                    == "naive"
                )

    def test_batch_products_run_scale_and_add(self, native, pairs, monkeypatch):
        """n = 300 full-width terms: no Straus table, no Pippenger bucket —
        where the pure kernel behind the same *name* runs Pippenger."""
        scalars, _, native_points = pairs

        def forbidden(*args, **kwargs):
            raise AssertionError("a shared chain ran on native additions")

        for tier in ("_straus", "_pippenger", "_pippenger_signed"):
            monkeypatch.setattr(multiexp, tier, forbidden)
        bases = native_points * 25
        exps = scalars * 25
        expected = native.identity()
        for base, e in zip(bases, exps):
            expected = expected * base**e
        assert native.multi_scale(bases, exps) == expected

    @pytest.mark.parametrize("algorithm", ["straus", "pippenger-signed", "pippenger-unsigned"])
    def test_kernel_is_complete(self, native, pairs, algorithm):
        """An explicit ``algorithm=`` still runs any tier over the kernel."""
        scalars, _, native_points = pairs
        expected = multi_exponentiation(native, native_points, scalars, algorithm="naive")
        assert multi_exponentiation(native, native_points, scalars, algorithm=algorithm) == expected


class TestSelfTest:
    def test_passes_on_this_host(self, native):
        assert native._self_test()

    def test_rfc_hash_vector_is_the_inverse_of_the_repo_map(self, native):
        digest = hashlib.sha512(
            b"Ristretto is traditionally a short shot of espresso coffee"
        ).digest()
        assert (~native.from_uniform_bytes(digest)).to_bytes().hex() == (
            "3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46"
        )

    def test_an_invalid_operand_raises_rather_than_reading_as_identity(self, native):
        bad = bytes.fromhex(BAD_ENCODINGS[0])
        smuggled = SodiumPoint(native, bad)  # bypasses from_bytes on purpose
        for operation in (
            lambda: smuggled**5,
            lambda: smuggled * native.generator(),
            lambda: native.generator() / smuggled,
            lambda: ~smuggled,
        ):
            with pytest.raises(NotOnGroupError):
                operation()
