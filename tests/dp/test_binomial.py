"""Binomial mechanism: Lemma 2.1 calibration and sampling."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dp.binomial import (
    MIN_COINS,
    BinomialMechanism,
    coins_for_privacy,
    epsilon_for_coins,
    sample_binomial,
)
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG


class TestCalibration:
    def test_lemma_formula(self):
        """nb = ceil(100 ln(2/δ) / ε²)."""
        eps, delta = 1.0, 2**-10
        assert coins_for_privacy(eps, delta) == math.ceil(100 * math.log(2 / delta))

    def test_roundtrip(self):
        """epsilon_for_coins inverts coins_for_privacy (up to ceiling)."""
        delta = 2**-10
        for eps in (0.5, 0.88, 1.25, 2.0):
            nb = coins_for_privacy(eps, delta)
            recovered = epsilon_for_coins(nb, delta)
            assert recovered <= eps + 1e-9
            assert epsilon_for_coins(nb - 1, delta) > eps or nb == MIN_COINS

    def test_monotonic_in_epsilon(self):
        delta = 2**-10
        nbs = [coins_for_privacy(eps, delta) for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert nbs == sorted(nbs, reverse=True)

    def test_monotonic_in_delta(self):
        assert coins_for_privacy(1.0, 2**-20) > coins_for_privacy(1.0, 2**-5)

    def test_floor_at_min_coins(self):
        assert coins_for_privacy(100.0, 0.5) == MIN_COINS

    def test_power_of_two_rounding(self):
        nb = coins_for_privacy(1.0, 2**-10, round_to_power_of_two=True)
        assert nb & (nb - 1) == 0
        assert nb >= coins_for_privacy(1.0, 2**-10)

    def test_paper_inconsistency_documented(self):
        """Table 1's caption (ε=0.88 → nb=262144) conflicts with Lemma 2.1,
        which gives nb=985; pin our faithful-to-the-lemma behaviour."""
        assert coins_for_privacy(0.88, 2**-10) == 985
        assert abs(epsilon_for_coins(262_144, 2**-10) - 0.0539) < 0.001

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            coins_for_privacy(0, 0.1)
        with pytest.raises(ParameterError):
            coins_for_privacy(1.0, 0)
        with pytest.raises(ParameterError):
            coins_for_privacy(1.0, 1.5)
        with pytest.raises(ParameterError):
            epsilon_for_coins(10, 0.1)


class TestSampling:
    def test_range(self):
        rng = SeededRNG("s")
        for _ in range(50):
            z = sample_binomial(100, rng)
            assert 0 <= z <= 100

    def test_moments(self):
        """Mean nb/2, variance nb/4 (within generous Monte-Carlo bounds)."""
        rng = SeededRNG("m")
        nb, trials = 200, 2000
        samples = [sample_binomial(nb, rng) for _ in range(trials)]
        mean = sum(samples) / trials
        var = sum((s - mean) ** 2 for s in samples) / trials
        assert abs(mean - nb / 2) < 1.0
        assert abs(var - nb / 4) < 8.0

    def test_zero_coins(self):
        assert sample_binomial(0, SeededRNG("z")) == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            sample_binomial(-1)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=20)
    def test_support(self, nb):
        z = sample_binomial(nb, SeededRNG(f"n{nb}"))
        assert 0 <= z <= nb


class TestMechanism:
    def test_centred_release(self):
        mech = BinomialMechanism(1.0, 2**-10)
        out = mech.release(100.0, SeededRNG("c"))
        assert out.value == 100.0 + out.noise
        assert abs(out.noise) <= mech.nb / 2

    def test_uncentred_release(self):
        mech = BinomialMechanism(1.0, 2**-10, centred=False)
        out = mech.release(0.0, SeededRNG("u"))
        assert 0 <= out.value <= mech.nb

    def test_error_independent_of_n(self):
        """Central-model property: Err depends only on (ε, δ)."""
        mech = BinomialMechanism(1.0, 2**-10)
        rng = SeededRNG("n-indep")
        small = sum(abs(mech.release(10.0, rng).noise) for _ in range(300)) / 300
        large = sum(abs(mech.release(1e6, rng).noise) for _ in range(300)) / 300
        # E|Z - nb/2| = sqrt(nb/(2π)) asymptotically (half-normal mean).
        assert abs(small - large) / math.sqrt(mech.nb / (2 * math.pi)) < 0.3
