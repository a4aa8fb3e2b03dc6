"""Laplace, randomized response, and the Mechanism interface."""

import pytest

from repro.dp.laplace import LaplaceMechanism, sample_laplace
from repro.dp.mechanism import counting_query
from repro.dp.randomized_response import RandomizedResponse
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG


class TestCountingQuery:
    def test_counting_query(self):
        assert counting_query([1, 0, 1, 1]) == 3
        assert counting_query([]) == 0


class TestLaplace:
    def test_scale(self):
        assert LaplaceMechanism(0.5, sensitivity=2.0).scale == 4.0

    def test_release_structure(self):
        mech = LaplaceMechanism(1.0)
        out = mech.release(10.0, SeededRNG("l"))
        assert out.value == 10.0 + out.noise

    def test_mean_abs_noise_matches_scale(self):
        mech = LaplaceMechanism(1.0)
        rng = SeededRNG("lm")
        mean = sum(abs(mech.release(0.0, rng).noise) for _ in range(3000)) / 3000
        assert mean == pytest.approx(mech.scale, rel=0.15)

    def test_noise_symmetric(self):
        rng = SeededRNG("sym")
        samples = [sample_laplace(1.0, rng) for _ in range(2000)]
        assert abs(sum(samples) / len(samples)) < 0.15

    def test_invalid(self):
        with pytest.raises(ParameterError):
            LaplaceMechanism(0.0)
        with pytest.raises(ParameterError):
            sample_laplace(-1.0)


class TestRandomizedResponse:
    def test_flip_probability(self):
        rr = RandomizedResponse(0.0 + 1e-9)
        assert rr.flip_probability == pytest.approx(0.5, abs=1e-6)
        assert RandomizedResponse(10.0).flip_probability < 1e-4

    def test_randomize_bit_values(self):
        rr = RandomizedResponse(1.0)
        rng = SeededRNG("rr")
        assert all(rr.randomize_bit(b, rng) in (0, 1) for b in (0, 1) for _ in range(10))
        with pytest.raises(ParameterError):
            rr.randomize_bit(2)

    def test_debiasing_unbiased(self):
        """Averaged over many runs the estimate matches the true count."""
        rr = RandomizedResponse(1.0)
        rng = SeededRNG("db")
        dataset = [1] * 300 + [0] * 700
        estimates = [rr.run_protocol(dataset, rng).value for _ in range(80)]
        assert sum(estimates) / len(estimates) == pytest.approx(300, abs=25)

    def test_scalar_release_unsupported(self):
        with pytest.raises(NotImplementedError):
            RandomizedResponse(1.0).release(5.0)

    def test_empty_reports(self):
        with pytest.raises(ParameterError):
            RandomizedResponse(1.0).aggregate([])
