"""DP-Error relationships: central O(1/ε) vs local O(√n/ε)."""

import pytest

from repro.analysis.error import empirical_error, protocol_error
from repro.dp.binomial import BinomialMechanism
from repro.dp.laplace import LaplaceMechanism
from repro.dp.randomized_response import RandomizedResponse
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

DELTA = 2**-10


class TestCentralError:
    def test_error_decreases_with_epsilon(self):
        rng = SeededRNG("eps")
        dataset = [1] * 100
        lo = empirical_error(BinomialMechanism(0.5, DELTA), dataset, 150, rng)
        hi = empirical_error(BinomialMechanism(2.0, DELTA), dataset, 150, rng)
        assert hi < lo

    def test_error_independent_of_n(self):
        rng = SeededRNG("n")
        mech = LaplaceMechanism(1.0)
        small = empirical_error(mech, [1] * 10, 400, rng)
        large = empirical_error(mech, [1] * 10_000, 400, rng)
        assert abs(small - large) < 0.5  # both ~1.0


class TestLocalError:
    def test_rr_error_grows_with_n(self):
        rng = SeededRNG("rr")
        rr = RandomizedResponse(1.0)
        small = empirical_error(rr, [1 if i % 2 else 0 for i in range(100)], 40, rng)
        large = empirical_error(rr, [1 if i % 2 else 0 for i in range(10_000)], 40, rng)
        assert large > 3 * small  # sqrt(100) = 10x expected

    def test_central_beats_local_at_scale(self):
        rng = SeededRNG("cb")
        dataset = [1 if i % 3 == 0 else 0 for i in range(5_000)]
        central = empirical_error(BinomialMechanism(1.0, DELTA), dataset, 50, rng)
        local = empirical_error(RandomizedResponse(1.0), dataset, 50, rng)
        assert local > 2 * central


class TestArguments:
    def test_invalid_trials(self):
        with pytest.raises(ParameterError):
            empirical_error(LaplaceMechanism(1.0), [1], 0)


class TestProtocolError:
    def test_protocol_error_matches_mechanism_error(self):
        """Full ΠBin runs have the same Err as the bare Binomial mechanism
        (completeness: the protocol realizes exactly that distribution)."""
        nb = 16
        err = protocol_error(
            [1, 0, 1], 1.0, DELTA, trials=25, nb_override=nb, group="p64-sim"
        )
        expected = BinomialMechanism(1.0, DELTA)
        expected.nb = nb
        # E|Binomial(16,1/2) - 8| ≈ sqrt(16/2π) ≈ 1.6
        assert 0.5 < err < 4.0

    def test_mpc_error_exceeds_curator(self):
        """K=2 adds two noise copies: Err grows by ~sqrt(2)."""
        k1 = protocol_error(
            [1], 1.0, DELTA, num_provers=1, trials=40, nb_override=24, group="p64-sim",
            seed="e1",
        )
        k2 = protocol_error(
            [1], 1.0, DELTA, num_provers=2, trials=40, nb_override=24, group="p64-sim",
            seed="e2",
        )
        assert k2 > k1
