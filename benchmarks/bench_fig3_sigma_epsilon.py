"""Figure 3 — Σ-proof create/verify latency vs privacy parameter ε.

The paper's four panels show prove/verify time growing as ε shrinks, on
both group backends, because nb ∝ 1/ε² (Lemma 2.1) and the per-coin cost
is constant.  We benchmark the per-coin cost on each backend and assert
the nb scaling; ``python -m repro fig3`` prints the projected totals per
ε exactly as the figure's series.
"""

import pytest

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.sigma.or_bit import prove_bit, verify_bit
from repro.dp.binomial import MIN_COINS, coins_for_privacy
from repro.utils.rng import SeededRNG

DELTA = 2**-10
# Doubling any of these keeps nb above Lemma 2.1's MIN_COINS floor.
EPSILONS = [0.5, 1.25, 2.0]


@pytest.mark.parametrize("backend", ["params_2048", "params_ristretto"])
def test_prove_per_coin(benchmark, backend, request):
    params = request.getfixturevalue(backend)
    rng = SeededRNG(f"f3p-{backend}")
    c, o = params.pedersen.commit_fresh(1, rng)

    def run():
        return prove_bit(params.pedersen, c, o, Transcript("f3"), rng)

    benchmark(run)


@pytest.mark.parametrize("backend", ["params_2048", "params_ristretto"])
def test_verify_per_coin(benchmark, backend, request):
    params = request.getfixturevalue(backend)
    rng = SeededRNG(f"f3v-{backend}")
    c, o = params.pedersen.commit_fresh(0, rng)
    proof = prove_bit(params.pedersen, c, o, Transcript("f3"), rng)
    benchmark(lambda: verify_bit(params.pedersen, c, proof, Transcript("f3")))


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_total_work_scales_with_inverse_epsilon_squared(epsilon):
    """nb(ε) ∝ 1/ε² pins the figure's x-axis relationship wherever both
    coin counts sit above the floor."""
    nb = coins_for_privacy(epsilon, DELTA)
    nb_double = coins_for_privacy(2 * epsilon, DELTA)
    assert nb_double > MIN_COINS
    assert nb / nb_double == pytest.approx(4.0, rel=0.15)


def test_coin_count_floors_at_min_coins():
    """Past ε ≈ 5 Lemma 2.1's formula asks for fewer than 31 coins and nb
    stops shrinking: doubling ε = 4 (48 coins) to 8 lands on the floor,
    so the figure's total work flattens there instead of falling 4×."""
    assert coins_for_privacy(8.0, DELTA) == MIN_COINS
    assert coins_for_privacy(4.0, DELTA) / coins_for_privacy(8.0, DELTA) < 2
