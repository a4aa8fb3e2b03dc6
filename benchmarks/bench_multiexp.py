"""Multiexp engine crossover — naive vs Straus-wNAF vs Pippenger.

The tiered engine in :mod:`repro.crypto.multiexp` is the hot primitive
under batched Σ-verification, the Line 12/13 checks, and every
commitment product; this bench pins its crossover behaviour per batch
size.  ``python -m repro multiexp`` prints the same sweep on this host;
tier-1's share of this file is the ``perfsmoke`` canary in
``tests/perf``.
"""

import pytest

from repro.crypto.multiexp import multi_exponentiation, select_algorithm
from repro.crypto.schnorr_group import SchnorrGroup
from repro.utils.rng import SeededRNG

SIZES = [4, 64, 1024]
ALGORITHMS = ["naive", "straus", "pippenger"]


def make_instance(group, n, seed="bench-me"):
    rng = SeededRNG(f"{seed}-{n}")
    bases = [group.random_element(rng) for _ in range(n)]
    exps = [rng.field_element(group.order) for _ in range(n)]
    return bases, exps


@pytest.fixture(scope="module")
def group128():
    return SchnorrGroup.named("p128-sim")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_multiexp_tier(benchmark, group128, n, algorithm):
    bases, exps = make_instance(group128, n)
    benchmark(
        lambda: multi_exponentiation(group128, bases, exps, algorithm=algorithm)
    )


@pytest.mark.parametrize("n", SIZES)
def test_multiexp_auto(benchmark, group128, n):
    bases, exps = make_instance(group128, n)
    benchmark(lambda: multi_exponentiation(group128, bases, exps))


def test_pippenger_dominates_at_scale(refused_powers):
    """At verifier batch sizes Pippenger must crush the naive product of
    CPython ``pow``s, what the naive tier runs without libgmp (with it,
    the tier is one libgmp product, level with the buckets only from
    n ≈ 16,384, which ``tests/perf`` pins)."""
    import time

    group = SchnorrGroup.named.__wrapped__("p128-sim")
    n = 4096
    bases, exps = make_instance(group, n, seed="scale")
    kernel = group.multiexp_kernel()
    assert (
        select_algorithm(
            n,
            group.order.bit_length(),
            native_pow=kernel.native_pow,
            op_overhead=kernel.op_overhead,
            neg_muls=kernel.neg_muls,
            pow_muls=kernel.pow_muls,
            signed_buckets=kernel.signed_buckets,
        )
        == "pippenger"
    )
    start = time.perf_counter()
    multi_exponentiation(group, bases, exps, algorithm="pippenger")
    pippenger = time.perf_counter() - start
    start = time.perf_counter()
    multi_exponentiation(group, bases[:256], exps[:256], algorithm="naive")
    naive_256 = time.perf_counter() - start
    naive_full = naive_256 * (n / 256)  # naive is perfectly linear
    assert pippenger * 3 < naive_full
