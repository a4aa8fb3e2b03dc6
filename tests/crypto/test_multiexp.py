"""Multi-exponentiation engine: all tiers agree with naive evaluation.

Cross-backend property tests assert naive == straus == pippenger on
random and edge inputs (empty batches, zero and negative exponents,
duplicate bases, batch sizes straddling every tier boundary) for the
Schnorr, ristretto255, and P-256 kernels plus the generic fallback.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import multiexp
from repro.crypto.multiexp import (
    FixedBaseTable,
    GenericKernel,
    kernel_for,
    multi_exponentiation,
    select_algorithm,
    shared_base_powers,
)
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

scalars = st.integers(min_value=0, max_value=2**70)
signed_scalars = st.integers(min_value=-(2**70), max_value=2**70)

# "pippenger" auto-picks a digit decomposition; the explicit -signed /
# -unsigned variants pin each bucket flavor, so every agreement test
# below also proves the signed-digit (2^c-ary NAF) path correct on
# random and edge inputs across all kernels.
ALGORITHMS = (
    "naive",
    "straus",
    "pippenger",
    "pippenger-signed",
    "pippenger-unsigned",
)

# Batch sizes at and around every tier boundary of the 128-bit Schnorr
# profile (naive ≤ ~4, straus ≤ ~12, pippenger beyond) plus a large one.
TIER_SIZES = (1, 2, 3, 4, 5, 8, 12, 13, 16, 33, 100)


def naive_product(group, bases, exps):
    acc = group.identity()
    for base, e in zip(bases, exps):
        acc = acc * base ** e
    return acc


def random_instance(group, n, seed):
    rng = SeededRNG(seed)
    bases = [group.random_element(rng) for _ in range(n)]
    exps = [rng.randrange(-group.order, group.order) for _ in range(n)]
    if n >= 3:
        bases[1] = bases[0]  # duplicate base
        exps[2] = 0  # zero exponent
    return bases, exps


class TestMultiExponentiation:
    @given(st.lists(signed_scalars, min_size=0, max_size=8))
    @settings(max_examples=30)
    def test_matches_naive(self, group64, exps):
        rng = SeededRNG("me")
        bases = [group64.random_element(rng) for _ in exps]
        expected = naive_product(group64, bases, exps)
        assert multi_exponentiation(group64, bases, exps) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", TIER_SIZES)
    def test_tiers_agree_schnorr(self, group64, n, algorithm):
        bases, exps = random_instance(group64, n, f"t{n}")
        expected = naive_product(group64, bases, exps)
        got = multi_exponentiation(group64, bases, exps, algorithm=algorithm)
        assert got == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", (1, 3, 13, 40))
    def test_tiers_agree_ristretto(self, ristretto, n, algorithm):
        bases, exps = random_instance(ristretto, n, f"r{n}")
        expected = naive_product(ristretto, bases, exps)
        assert multi_exponentiation(ristretto, bases, exps, algorithm=algorithm) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", (1, 3, 13, 40))
    def test_tiers_agree_p256(self, n, algorithm):
        from repro.crypto.p256 import P256Group

        group = P256Group.instance()
        bases, exps = random_instance(group, n, f"p{n}")
        expected = naive_product(group, bases, exps)
        assert multi_exponentiation(group, bases, exps, algorithm=algorithm) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_tiers_agree_generic_kernel(self, group64, algorithm, monkeypatch):
        # Knock out the Schnorr kernel so the GroupElement fallback runs.
        monkeypatch.setattr(type(group64), "multiexp_kernel", lambda self: None)
        assert isinstance(kernel_for(group64), GenericKernel)
        bases, exps = random_instance(group64, 9, "gen")
        expected = naive_product(group64, bases, exps)
        assert multi_exponentiation(group64, bases, exps, algorithm=algorithm) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty(self, group64, algorithm):
        assert multi_exponentiation(group64, [], [], algorithm=algorithm) == group64.identity()

    def test_single(self, group64):
        g = group64.generator()
        assert multi_exponentiation(group64, [g], [12345]) == g ** 12345

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_zero_exponents(self, group64, algorithm):
        g = group64.generator()
        got = multi_exponentiation(group64, [g, g], [0, 0], algorithm=algorithm)
        assert got == group64.identity()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_negative_exponents(self, group64, algorithm):
        g = group64.generator()
        got = multi_exponentiation(group64, [g, g ** 3], [-1, -5], algorithm=algorithm)
        assert got == (g ** (group64.order - 1)) * (g ** (3 * (group64.order - 5)))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_duplicate_bases(self, group64, algorithm):
        g = group64.generator()
        got = multi_exponentiation(group64, [g, g, g], [5, 7, 11], algorithm=algorithm)
        assert got == g ** 23

    def test_mismatch(self, group64):
        with pytest.raises(ParameterError):
            multi_exponentiation(group64, [group64.generator()], [1, 2])

    def test_unknown_algorithm(self, group64):
        with pytest.raises(ParameterError):
            multi_exponentiation(group64, [group64.generator()], [3], algorithm="montgomery")
        with pytest.raises(ParameterError):  # validated even for degenerate batches
            multi_exponentiation(group64, [], [], algorithm="montgomery")

    def test_on_ristretto(self, ristretto):
        g = ristretto.generator()
        bases = [g ** 3, g ** 5]
        assert multi_exponentiation(ristretto, bases, [2, 4]) == g ** 26


class TestSharedBasePowers:
    """Several exact powers of one base equal ``**``, whichever way the
    ``native_pow`` hint sends them: C ``pow`` per exponent on the Schnorr
    kernel, the shared squaring chain on every other kernel."""

    @pytest.fixture(params=["schnorr", "schnorr-chain", "generic", "ristretto", "p256"])
    def group(self, request, group64, ristretto, monkeypatch):
        from repro.crypto.p256 import P256Group

        if request.param == "schnorr-chain":  # the chain over raw ints
            monkeypatch.setattr(type(kernel_for(group64)), "native_pow", False)
        elif request.param == "generic":
            monkeypatch.setattr(type(group64), "multiexp_kernel", lambda self: None)
        return {"ristretto": ristretto, "p256": P256Group.instance()}.get(
            request.param, group64
        )

    def edge_exponents(self, q):
        window = multiexp._SHARED_CHAIN_WINDOW
        all_eights = int("8" * (q.bit_length() // 4), 16)  # every digit borrows
        return [0, 1, 2, (1 << window) - 1, 1 << window, all_eights, q - 1, q, q + 3, -5]

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_random_exponents(self, group, k):
        rng = SeededRNG(f"sbp-{group.name}-{k}")
        base = group.random_element(rng)
        exps = [rng.randrange(-group.order, 2 * group.order) for _ in range(k)]
        assert shared_base_powers(base, exps) == [base**e for e in exps]

    def test_edge_exponents(self, group):
        base = group.random_element(SeededRNG(f"sbp-edge-{group.name}"))
        exps = self.edge_exponents(group.order)
        assert shared_base_powers(base, exps) == [base**e for e in exps]
        for e in exps:  # alone, and beside itself
            assert shared_base_powers(base, [e]) == [base**e]
            assert shared_base_powers(base, [e, e]) == [base**e] * 2

    def test_identity_and_generator_bases(self, group):
        exps = self.edge_exponents(group.order)
        assert shared_base_powers(group.identity(), exps) == [group.identity()] * len(exps)
        g = group.generator()
        assert shared_base_powers(g, exps) == [g**e for e in exps]

    def test_no_exponents(self, group):
        assert shared_base_powers(group.generator(), []) == []

    def test_native_pow_groups_never_walk_the_python_chain(self, group64, monkeypatch):
        """A Python chain over ints is ~3× slower than two C ``pow`` calls,
        so the Schnorr groups must not be sent down it."""
        kernel = kernel_for(group64)
        assert kernel.native_pow

        def forbidden(*args):
            raise AssertionError("shared chain ran on a native_pow kernel")

        monkeypatch.setattr(type(kernel), "mul", forbidden)
        monkeypatch.setattr(type(kernel), "sqr", forbidden)
        base = group64.random_element(SeededRNG("sbp-native"))
        assert shared_base_powers(base, [5, 7]) == [base**5, base**7]


class TestSelection:
    def test_trivial_cases_are_naive(self):
        assert select_algorithm(0, 128) == "naive"
        assert select_algorithm(1, 128) == "naive"
        assert select_algorithm(100, 1) == "naive"

    def test_large_batches_use_pippenger(self):
        for bits in (127, 252, 2047):
            assert select_algorithm(4096, bits) == "pippenger"

    def test_monotone_tiers_128(self):
        # Order along n must be naive* straus* pippenger* (no interleaving).
        picks = [select_algorithm(n, 127) for n in range(1, 300)]
        ranks = [("naive", "straus", "pippenger").index(p) for p in picks]
        assert ranks == sorted(ranks)

    def test_wide_groups_prefer_shared_chain_early(self):
        # modp-2048 profile: one C pow is ~2047 muls, so Straus' shared
        # square chain wins from n = 2 already.
        assert select_algorithm(2, 2047, native_pow=True, op_overhead=0.05) == "straus"

    def test_curve_backends_skip_naive_early(self):
        assert select_algorithm(2, 252, native_pow=False, op_overhead=0.1) == "straus"

    def test_signed_buckets_chosen_only_where_negation_is_cheap(self):
        from repro.crypto.multiexp import _pippenger_variant

        # Curve profile: negation is a coordinate flip -> signed digits.
        assert _pippenger_variant(4096, 252, 0.05)[0] == "pippenger-signed"
        # Schnorr integer profile: negation is ~3 muls via batch
        # inversion, which eats the saved windows -> unsigned holds.
        assert _pippenger_variant(4096, 127, 3.2)[0] == "pippenger-unsigned"

    def test_signed_cost_model_counts_the_negation_pass(self):
        from repro.crypto.multiexp import _pippenger_cost

        free = _pippenger_cost(1024, 252, 9, signed=True, neg_muls=0.0)
        paid = _pippenger_cost(1024, 252, 9, signed=True, neg_muls=3.2)
        assert paid - free == pytest.approx(3.2 * 1024)


class TestSelectionIsPure:
    """Tier selection is a function of (n, bits, kernel hints) and nothing
    else: no file, environment variable or working directory moves it."""

    @pytest.fixture
    def hostile_surroundings(self, monkeypatch, tmp_path):
        import json

        rows = [
            {"group": name, "n": 4096, "bits": bits,
             "naive_ms": 1.0, "straus_ms": 2.0, "pippenger_ms": 3.0}
            for name, bits in (
                ("p64-sim", 63), ("p128-sim", 127), ("modp-2048", 2047),
                ("ristretto255", 253), ("p256", 256),
            )
        ]
        (tmp_path / "BENCH_multiexp.json").write_text(json.dumps({"rows": rows}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))

    def test_selection_ignores_a_hostile_bench_file(self, hostile_surroundings, group128):
        kernel = kernel_for(group128)
        for n in (16, 24, 32, 4096):
            assert (
                select_algorithm(
                    n,
                    127,
                    native_pow=kernel.native_pow,
                    op_overhead=kernel.op_overhead,
                    neg_muls=kernel.neg_muls,
                )
                == "pippenger"
            )

    def test_a_batch_runs_the_tier_the_model_picked(
        self, hostile_surroundings, group128, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("n = 64 on p128-sim must run a bucket tier")

        monkeypatch.setattr(multiexp, "_naive", forbidden)
        monkeypatch.setattr(multiexp, "_straus", forbidden)
        bases, exps = random_instance(group128, 64, "pure-64")
        assert multi_exponentiation(group128, bases, exps) == naive_product(
            group128, bases, exps
        )

    def test_straus_runs_at_the_width_it_was_priced_at(self, monkeypatch):
        """A 2047-bit batch: the window handed to ``_straus`` is the one
        ``select_algorithm`` put into ``_straus_cost``."""
        from repro.crypto.schnorr_group import SchnorrGroup

        priced, run = [], []
        straus_cost, straus = multiexp._straus_cost, multiexp._straus

        def spy_cost(n, bits, window, overhead):
            priced.append(window)
            return straus_cost(n, bits, window, overhead)

        def spy_straus(kernel, raw_bases, exps, window):
            run.append(window)
            return straus(kernel, raw_bases, exps, window)

        monkeypatch.setattr(multiexp, "_straus_cost", spy_cost)
        monkeypatch.setattr(multiexp, "_straus", spy_straus)
        group = SchnorrGroup.named("modp-2048")
        rng = SeededRNG("priced-width")
        bases = [group.random_element(rng) for _ in range(4)]
        exps = [(1 << 2046) | rng.randbits(2046) for _ in range(4)]
        expected = naive_product(group, bases, exps)
        assert multi_exponentiation(group, bases, exps) == expected
        assert priced == run == [multiexp._straus_window(2047)] == [6]


class TestKernels:
    def test_raw_roundtrip(self, group64, ristretto):
        from repro.crypto.p256 import P256Group

        for group in (group64, ristretto, P256Group.instance()):
            kernel = kernel_for(group)
            element = group.random_element(SeededRNG(f"rt-{group.name}"))
            assert kernel.from_raw(kernel.to_raw(element)) == element
            assert kernel.from_raw(kernel.identity_raw) == group.identity()

    def test_mul_sqr_neg_consistent(self, group64, ristretto):
        from repro.crypto.p256 import P256Group

        for group in (group64, ristretto, P256Group.instance()):
            kernel = kernel_for(group)
            rng = SeededRNG(f"k-{group.name}")
            a, b = group.random_element(rng), group.random_element(rng)
            ra, rb = kernel.to_raw(a), kernel.to_raw(b)
            assert kernel.from_raw(kernel.mul(ra, rb)) == a * b
            assert kernel.from_raw(kernel.sqr(ra)) == a * a
            (neg,) = kernel.neg_many([ra])
            assert kernel.from_raw(neg) == ~a

    def test_p256_normalize_many(self):
        from repro.crypto.p256 import P256Group

        group = P256Group.instance()
        rng = SeededRNG("norm")
        points = [group.random_element(rng) ** 7 for _ in range(5)] + [group.identity()]
        normalized = group.normalize_many(points)
        assert [p.to_bytes() for p in normalized] == [p.to_bytes() for p in points]
        assert all(p.Z == 1 for p in normalized if not p.is_infinity())


class TestFixedBaseTable:
    @given(a=scalars)
    @settings(max_examples=30)
    def test_matches_pow(self, group64, a):
        table = _table64(group64)
        assert table.power(a) == group64.generator() ** a

    def test_zero(self, group64):
        assert _table64(group64).power(0) == group64.identity()

    def test_order_reduction(self, group64):
        table = _table64(group64)
        assert table.power(group64.order + 5) == group64.generator() ** 5

    def test_base_property(self, group64):
        assert _table64(group64).base == group64.generator()

    def test_invalid_window(self, group64):
        with pytest.raises(ParameterError):
            FixedBaseTable(group64.generator(), window=0)
        with pytest.raises(ParameterError):
            FixedBaseTable(group64.generator(), window=99)

    def test_raw_tables_cached(self, group64):
        table = _table64(group64)
        kernel = kernel_for(group64)
        rows = table.raw_tables(kernel)
        assert rows is table.raw_tables(kernel)
        assert kernel.from_raw(rows[0][1]) == table.base


_cached = {}


def _table64(group64):
    if "t" not in _cached:
        _cached["t"] = FixedBaseTable(group64.generator(), window=5)
    return _cached["t"]
