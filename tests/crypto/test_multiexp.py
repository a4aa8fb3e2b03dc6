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


class TestCalibration:
    """The measured-BENCH auto-tuner: trusted when present, silent when not."""

    def _with_bench(self, monkeypatch, tmp_path, payload):
        import json

        from repro.crypto import multiexp

        (tmp_path / "BENCH_multiexp.json").write_text(json.dumps(payload))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_MULTIEXP_CALIBRATION", raising=False)
        multiexp._reset_calibration()
        return multiexp

    def test_measured_crossovers_override_the_cost_model(self, monkeypatch, tmp_path):
        rows = [
            {"group": "x-sim", "n": 4, "bits": 127, "naive_ms": 1.0, "straus_ms": 2.0, "pippenger_ms": 3.0},
            {"group": "x-sim", "n": 16, "bits": 127, "naive_ms": 3.0, "straus_ms": 1.0, "pippenger_ms": 2.0},
            {"group": "x-sim", "n": 64, "bits": 127, "naive_ms": 9.0, "straus_ms": 3.0, "pippenger_ms": 1.0},
        ]
        multiexp = self._with_bench(monkeypatch, tmp_path, {"rows": rows})
        try:
            assert multiexp.select_algorithm(4, 127, group_name="x-sim") == "naive"
            assert multiexp.select_algorithm(16, 127, group_name="x-sim") == "straus"
            assert multiexp.select_algorithm(64, 127, group_name="x-sim") == "pippenger"
            # A very different exponent width must NOT trust the table.
            assert (
                multiexp.select_algorithm(4, 2047, group_name="x-sim")
                == multiexp.select_algorithm(4, 2047)
            )
        finally:
            multiexp._reset_calibration()

    def test_no_extrapolation_past_the_largest_measured_n(self, monkeypatch, tmp_path):
        # The top measured row still has straus winning; past it the rows
        # say nothing about a crossover, so the cost model must decide —
        # the tuner interpolates, never extrapolates.
        rows = [
            {"group": "x-wide", "n": 8, "bits": 2047, "naive_ms": 9.0, "straus_ms": 1.0, "pippenger_ms": 2.0},
            {"group": "x-wide", "n": 32, "bits": 2047, "naive_ms": 30.0, "straus_ms": 3.0, "pippenger_ms": 5.0},
        ]
        multiexp = self._with_bench(monkeypatch, tmp_path, {"rows": rows})
        try:
            assert multiexp.select_algorithm(32, 2047, group_name="x-wide") == "straus"
            assert (
                multiexp.select_algorithm(
                    64, 2047, native_pow=True, op_overhead=0.05, group_name="x-wide"
                )
                == multiexp.select_algorithm(64, 2047, native_pow=True, op_overhead=0.05)
            )
        finally:
            multiexp._reset_calibration()

    def test_measured_straus_window_overrides_the_table(self, monkeypatch, tmp_path):
        rows = [
            {"group": "x-sim", "kind": "straus-window", "n": 16, "bits": 127, "window": 3, "ms": 5.0},
            {"group": "x-sim", "kind": "straus-window", "n": 16, "bits": 127, "window": 6, "ms": 1.0},
        ]
        multiexp = self._with_bench(monkeypatch, tmp_path, {"rows": rows})
        try:
            assert multiexp._straus_window(127, "x-sim") == 6
            # Far-off widths and unknown groups fall back to the table.
            assert multiexp._straus_window(2047, "x-sim") == multiexp._straus_window(2047)
            assert multiexp._straus_window(127, "unknown") == multiexp._straus_window(127)
        finally:
            multiexp._reset_calibration()

    def test_absent_or_garbage_file_falls_back_silently(self, monkeypatch, tmp_path):
        from repro.crypto import multiexp

        # No file anywhere (the checked-in repo-root copy is part of the
        # default search path, so stub the resolver itself).
        monkeypatch.setattr(multiexp, "_calibration_path", lambda: None)
        multiexp._reset_calibration()
        try:
            assert multiexp._calibration() == {}
            garbage = tmp_path / "BENCH_multiexp.json"
            garbage.write_text("{not json")
            monkeypatch.setattr(multiexp, "_calibration_path", lambda: garbage)
            multiexp._reset_calibration()
            assert multiexp._calibration() == {}
            assert multiexp.select_algorithm(4096, 127, group_name="x-sim") == "pippenger"
        finally:
            multiexp._reset_calibration()

    def test_opt_out_env_var(self, monkeypatch, tmp_path):
        rows = [
            {"group": "x-sim", "n": 4096, "bits": 127, "naive_ms": 1.0, "straus_ms": 2.0, "pippenger_ms": 3.0},
        ]
        multiexp = self._with_bench(monkeypatch, tmp_path, {"rows": rows})
        try:
            assert multiexp.select_algorithm(4096, 127, group_name="x-sim") == "naive"
            monkeypatch.setenv("REPRO_MULTIEXP_CALIBRATION", "0")
            multiexp._reset_calibration()
            assert multiexp.select_algorithm(4096, 127, group_name="x-sim") == "pippenger"
        finally:
            multiexp._reset_calibration()

    def test_variant_rows_alone_do_not_claim_crossovers(self, monkeypatch, tmp_path):
        # A group measured only by the signed-vs-unsigned comparison (no
        # tier timings) must keep cost-model tier selection.
        rows = [
            {"group": "x-sim", "kind": "pippenger-variants", "n": 1024, "bits": 127,
             "unsigned_ms": 5.0, "signed_ms": 6.0, "signed_speedup": 0.83},
        ]
        multiexp = self._with_bench(monkeypatch, tmp_path, {"rows": rows})
        try:
            assert (
                multiexp.select_algorithm(2, 127, group_name="x-sim")
                == multiexp.select_algorithm(2, 127)
            )
        finally:
            multiexp._reset_calibration()


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
