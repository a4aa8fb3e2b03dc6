"""Public parameters and setup()."""

import pytest

from repro.core.params import PublicParams, setup
from repro.crypto.pedersen import PedersenParams
from repro.dp.binomial import coins_for_privacy
from repro.errors import ParameterError


class TestSetup:
    def test_defaults(self):
        params = setup(1.0, 2**-10, group="p64-sim")
        assert params.num_provers == 1
        assert params.dimension == 1
        assert params.nb == coins_for_privacy(1.0, 2**-10)
        assert params.q == params.group.order

    def test_nb_override(self):
        params = setup(1.0, 2**-10, group="p64-sim", nb_override=64)
        assert params.nb == 64
        # effective epsilon recomputed for the override
        assert params.epsilon != 1.0

    def test_power_of_two(self):
        params = setup(1.0, 2**-10, group="p64-sim", round_to_power_of_two=True)
        assert params.nb & (params.nb - 1) == 0

    def test_ristretto_backend(self):
        params = setup(1.0, 2**-10, group="ristretto255", nb_override=31)
        assert params.group.name == "ristretto255"

    def test_invalid(self):
        with pytest.raises(ParameterError):
            setup(1.0, 2**-10, group="p64-sim", num_provers=0)
        with pytest.raises(ParameterError):
            setup(1.0, 2**-10, group="p64-sim", dimension=0)
        with pytest.raises(ParameterError):
            setup(1.0, 2**-10, group="p64-sim", nb_override=0)

    def test_noise_mean(self):
        params = setup(1.0, 2**-10, group="p64-sim", num_provers=3, nb_override=50)
        assert params.noise_mean == 75.0


class TestFingerprint:
    def test_stable(self, group64):
        a = setup(1.0, 2**-10, group="p64-sim")
        b = setup(1.0, 2**-10, group="p64-sim")
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 2.0},
            {"delta": 2**-12},
            {"num_provers": 2},
            {"dimension": 3},
            {"nb_override": 99},
        ],
    )
    def test_sensitive_to_every_field(self, kwargs):
        base = dict(epsilon=1.0, delta=2**-10, group="p64-sim")
        a = setup(**base)
        base.update(kwargs)
        b = setup(**base)
        assert a.fingerprint() != b.fingerprint()

    def test_sensitive_to_group(self):
        a = setup(1.0, 2**-10, group="p64-sim")
        b = setup(1.0, 2**-10, group="p128-sim")
        assert a.fingerprint() != b.fingerprint()
