"""Smoothness of the Binomial distribution (Definition 13 / Lemma B.2)."""

import math

import pytest

from repro.dp.binomial import coins_for_privacy, epsilon_for_coins
from repro.dp.smoothness import binomial_log_pmf, smoothness_delta
from repro.errors import ParameterError


class TestLogPmf:
    def test_sums_to_one(self):
        n = 64
        total = sum(math.exp(binomial_log_pmf(n, y)) for y in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        n = 50
        for y in range(0, 25):
            assert binomial_log_pmf(n, y) == pytest.approx(binomial_log_pmf(n, n - y))

    def test_outside_support(self):
        assert binomial_log_pmf(10, -1) == float("-inf")
        assert binomial_log_pmf(10, 11) == float("-inf")


class TestSmoothness:
    def test_lemma_parameters_are_smooth(self):
        """For nb from Lemma 2.1 the exact failure mass is below δ —
        the lemma's constants are sound (indeed conservative)."""
        delta = 2**-8
        for eps in (1.5, 2.0, 3.0):
            nb = coins_for_privacy(eps, delta)
            exact = smoothness_delta(nb, eps, k=1)
            assert exact <= delta, (eps, nb, exact)

    def test_lemma_is_conservative(self):
        """The exact δ is far below the lemma's bound — expected, the
        paper's constants come from loose Chernoff bounds."""
        delta = 2**-8
        nb = coins_for_privacy(2.0, delta)
        assert smoothness_delta(nb, 2.0) < delta / 10

    def test_tiny_epsilon_not_smooth_for_small_n(self):
        """A 20-coin binomial cannot be (0.01, tiny-δ)-smooth: the
        central ratio alone exceeds e^0.01."""
        assert smoothness_delta(20, 0.01) > 0.3

    def test_monotone_in_epsilon(self):
        """Larger ε ⇒ easier requirement ⇒ smaller failure mass."""
        deltas = [smoothness_delta(100, eps) for eps in (0.05, 0.2, 0.5, 1.0)]
        assert deltas == sorted(deltas, reverse=True)

    def test_more_coins_smoother(self):
        eps = 0.5
        assert smoothness_delta(400, eps) <= smoothness_delta(50, eps)

    def test_k_greater_than_one(self):
        """k-incremental queries: smoothness over shifts up to k."""
        d1 = smoothness_delta(200, 0.5, k=1)
        d3 = smoothness_delta(200, 0.5, k=3)
        assert d3 >= d1  # larger shift family can only fail more

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            smoothness_delta(0, 1.0)
        with pytest.raises(ParameterError):
            smoothness_delta(10, 0.0)
        with pytest.raises(ParameterError):
            smoothness_delta(10, 1.0, k=0)


class TestEndToEndPrivacy:
    def test_dp_guarantee_via_smoothness(self):
        """The chain Lemma B.2 → Lemma B.1 → Lemma 2.1: for the calibrated
        nb, adding Binomial noise to a sensitivity-1 count is (ε, δ)-DP;
        verified by the exact smoothness computation."""
        eps_target, delta_target = 2.0, 2**-8
        nb = coins_for_privacy(eps_target, delta_target)
        # ε reported for this nb:
        eps_actual = epsilon_for_coins(nb, delta_target)
        assert eps_actual <= eps_target + 1e-9
        # Exact smoothness at the *actual* epsilon:
        assert smoothness_delta(nb, eps_actual, k=1) <= delta_target
