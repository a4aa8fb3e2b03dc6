"""The Schnorr groups' residue kernels against plain ``**``.

``SchnorrGroup.fixed_base_pair`` walks byte digits over plain-int rows
(``_ResiduePair``) up to ``_RESIDUE_PAIR_MAX_BITS`` of modulus, and the
unsigned bucket method runs on residues (``multiexp._pippenger_residues``:
list buckets up to ``_LIST_BUCKET_MAX_BITS``, in-place products above).
Both must give the element ``**`` gives on every named group, at the
exponents where digit arithmetic goes wrong first; and the seeded
release and coin bytes of a session on either side of the width rule
must be the ones recorded before the kernels existed.
"""

import hashlib

import pytest

from repro.api import CountQuery, Session
from repro.crypto import multiexp, schnorr_group
from repro.crypto.multiexp import CombPair, multi_exponentiation
from repro.crypto.pedersen import PedersenParams
from repro.crypto.schnorr_group import SchnorrGroup
from repro.crypto.serialization import encode_message
from repro.utils.rng import SeededRNG

GROUPS = ("p32-sim", "p64-sim", "p128-sim", "p256-sim", "modp-2048")


def edge_exponents(q: int) -> list[int]:
    """0, 1, q − 1, q, q + 5, negatives, and both sides of byte, word and
    order-width powers of two."""
    width = q.bit_length()
    edges = [0, 1, 2, q - 1, q, q + 5, -1, -q - 3, 2 * q + 1]
    for k in (7, 8, 9, 16, 31, 32, 63, 64, 127, 128, width - 1, width):
        edges += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    return edges


@pytest.fixture(scope="module", params=GROUPS)
def group(request):
    return SchnorrGroup.named(request.param)


@pytest.fixture(scope="module")
def residue_pair(group):
    """The byte-digit pair for (g, h) — built directly on modp-2048, where
    ``fixed_base_pair`` keeps the comb tables (2.5 s, once)."""
    h = group.hash_to_group(b"residue-kernels")
    return h, schnorr_group._ResiduePair(group.generator(), h)


class TestResiduePair:
    def test_single_powers_match_pow(self, group, residue_pair):
        h, pair = residue_pair
        g = group.generator()
        exps = edge_exponents(group.order)
        assert pair.dual_many(exps, [0] * len(exps)) == [g**e for e in exps]
        assert pair.dual_many([0] * len(exps), exps) == [h**e for e in exps]

    def test_pairs_match_pow(self, group, residue_pair):
        h, pair = residue_pair
        g = group.generator()
        rng = SeededRNG(f"residue-pair/{group.name}")
        exps = edge_exponents(group.order)
        exps += [rng.field_element(group.order) for _ in range(8)]
        ys = exps[::-1]
        expected = [(g**x) * (h**y) for x, y in zip(exps, ys)]
        assert pair.dual_many(exps, ys) == expected

    def test_empty_batch(self, residue_pair):
        _, pair = residue_pair
        assert pair.dual_many([], []) == []


def _two_row_walk(pair, x: int, y: int) -> int:
    """The pair's generic walk: both rows at every byte position."""
    acc = 1
    for (row_a, row_b), dx, dy in zip(
        pair._rows,
        (x % pair._q).to_bytes(pair._width, "little"),
        (y % pair._q).to_bytes(pair._width, "little"),
    ):
        acc = acc * row_a[dx] * row_b[dy] % pair._p
    return acc


class TestHOnlyWalk:
    """An a-exponent of 0 or 1 mod q walks the b rows alone; the residue
    must be the two-row walk's, and every other exponent still takes the
    two-row walk."""

    @pytest.mark.parametrize("name", ["p64-sim", "p128-sim", "p256-sim"])
    def test_matches_the_two_row_walk(self, name):
        group = SchnorrGroup.named(name)
        q = group.order
        pair = schnorr_group._ResiduePair(group.generator(), group.hash_to_group(b"h-only"))
        rng = SeededRNG(f"h-only/{name}")
        g_exps = [0, 1, q, q + 1, -1] + [rng.field_element(q) for _ in range(4)]
        h_exps = edge_exponents(q) + [rng.field_element(q) for _ in range(8)]
        xs = [x for x in g_exps for _ in h_exps]
        ys = h_exps * len(g_exps)
        walked = [element.value for element in pair.dual_many(xs, ys)]
        assert walked == [_two_row_walk(pair, x, y) for x, y in zip(xs, ys)]


class TestResidueBuckets:
    """``algorithm="pippenger-unsigned"`` runs the residue loop on every
    Schnorr group; ``naive`` is one C ``pow`` per term."""

    @staticmethod
    def agree(group, bases, exps):
        expected = multi_exponentiation(group, bases, exps, algorithm="naive")
        assert multi_exponentiation(
            group, bases, exps, algorithm="pippenger-unsigned"
        ) == expected
        assert multi_exponentiation(group, bases, exps, algorithm="pippenger") == expected

    def test_edge_exponents(self, group):
        rng = SeededRNG(f"residue-buckets/{group.name}")
        exps = edge_exponents(group.order)
        if group.name == "modp-2048":
            exps = exps[::3]  # ≈ 0.1 s per term at 2048 bits
        bases = [group.random_element(rng) for _ in exps]
        self.agree(group, bases, exps)

    def test_one_term(self, group):
        base = group.random_element(SeededRNG(f"one-term/{group.name}"))
        for e in (1, 2, group.order - 1, -7):
            self.agree(group, [base], [e])

    def test_repeated_bases(self, group):
        rng = SeededRNG(f"repeated/{group.name}")
        base = group.random_element(rng)
        exps = [rng.field_element(group.order) for _ in range(6)]
        self.agree(group, [base] * 6, exps)
        self.agree(group, [base, base], [5, -5])

    def test_all_zero_digit_windows(self, group):
        """Every exponent is 0 in every window but the top and the bottom
        byte: whole windows file nothing into any bucket."""
        rng = SeededRNG(f"zero-windows/{group.name}")
        top = group.order.bit_length() - 2
        exps = [(1 << top) | (i + 1) for i in range(5)] + [1 << top]
        bases = [group.random_element(rng) for _ in exps]
        self.agree(group, bases, exps)

    @pytest.mark.parametrize("name, n", [("p64-sim", 16), ("p128-sim", 64), ("p128-sim", 194)])
    def test_automatic_buckets_stay_unsigned(self, name, n, monkeypatch):
        """Sizes where the cost model prices signed digits cheaper: on the
        residue kernels the automatic pick still runs the unsigned residue
        loop (the signed one is the generic kernel-call loop, 1.1–1.2×
        slower there)."""
        group = SchnorrGroup.named(name)
        rng = SeededRNG(f"unsigned/{name}/{n}")
        bases = [group.random_element(rng) for _ in range(n)]
        exps = [rng.field_element(group.order) for _ in range(n)]
        expected = multi_exponentiation(group, bases, exps, algorithm="naive")

        def forbidden(*args):
            raise AssertionError("signed buckets on a residue kernel")

        monkeypatch.setattr(multiexp, "_pippenger_signed", forbidden)
        assert multi_exponentiation(group, bases, exps) == expected
        assert multi_exponentiation(group, bases, exps, algorithm="pippenger") == expected

    @pytest.mark.parametrize("name", ["p64-sim", "p256-sim"])
    def test_every_window_width(self, name):
        """Both bucket flavours (p64-sim lists, p256-sim in place) at
        every window c, including ones the cost model never picks."""
        group = SchnorrGroup.named(name)
        assert (group.modulus.bit_length() <= multiexp._LIST_BUCKET_MAX_BITS) == (
            name == "p64-sim"
        )
        rng = SeededRNG(f"windows/{name}")
        raws = [group.random_element(rng).value for _ in range(12)]
        exps = [rng.field_element(group.order) for _ in range(12)]
        p, bits = group.modulus, group.order.bit_length()
        expected = 1
        for raw, e in zip(raws, exps):
            expected = expected * pow(raw, e, p) % p
        for c in range(1, 10):
            assert multiexp._pippenger_residues(raws, exps, bits, c, p) == expected


def _odd_modulus(bits: int) -> int:
    """An odd ``bits``-bit number: enough for a group object whose
    arithmetic is timed or typed, never trusted (``check=False``)."""
    return (1 << (bits - 1)) | 0xF00D


class TestWidthRule:
    @pytest.mark.parametrize("name", ["p32-sim", "p64-sim", "p128-sim", "p256-sim"])
    def test_named_sim_groups_get_the_residue_pair(self, name):
        group = SchnorrGroup.named(name)
        pair = group.fixed_base_pair(group.generator(), group.hash_to_group(b"w"))
        assert isinstance(pair, schnorr_group._ResiduePair)

    def test_modp_2048_keeps_the_comb_tables(self):
        pair = PedersenParams(SchnorrGroup.named("modp-2048"))._fixed
        assert isinstance(pair, CombPair)
        assert [table.window for table in pair.tables] == [6, 6]

    def test_the_rule_is_the_modulus_width(self):
        limit = schnorr_group._RESIDUE_PAIR_MAX_BITS
        for bits, kind in ((limit, schnorr_group._ResiduePair), (limit + 1, CombPair)):
            group = SchnorrGroup(_odd_modulus(bits), name=f"width-{bits}", check=False)
            g, h = group.generator(), group.hash_to_group(b"w")
            pair = group.fixed_base_pair(g, h)
            assert isinstance(pair, kind)
            assert pair.dual_many([3, 0], [0, 5]) == [g**3, h**5]


def _seeded_run(group: str) -> tuple[str, str]:
    """SHA-256 of the release and of every coin message of one seeded,
    one-chunk session (K = 2, nb = 8, five clients)."""
    session = Session(
        CountQuery(1.0, 2**-10),
        num_provers=2,
        group=group,
        nb_override=8,
        rng=SeededRNG(f"residue-pin/{group}"),
    )
    session.submit([1, 0, 1, 1, 0])
    result = session.release()[0]
    assert result.accepted
    coins = b"".join(encode_message(m) for m in result.engine_result.coin_messages)
    return (
        hashlib.sha256(encode_message(result.release)).hexdigest(),
        hashlib.sha256(coins).hexdigest(),
    )


# Recorded on the comb-table kernels, before the residue kernels existed.
PINNED = {
    "p256-sim": (
        "f4e93baebd4167fcb6fd035ecd321d4518ac23b7b6de8ed12f5529129daecf66",
        "272bc31c7b6531583e6a8e298c92d81f01a70feb173ec8b37087fdb4abe82ae2",
    ),
    "modp-2048": (
        "31647543020f4b6860032acb20713d79141e5e5ece279b9cfab0a38484d714af",
        "0e93df09df006736a23ef0ec1fc5b9ce1f1874ed295a7918a2438831b0a1ba3a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_release_and_coin_bytes_are_unchanged(name):
    assert _seeded_run(name) == PINNED[name]
