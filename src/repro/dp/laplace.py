"""The Laplace mechanism (Dwork et al., discussed in Section 7).

Adds Laplace(Δ/ε) noise for pure ε-DP; the canonical trusted-curator
baseline with Err = Δ/ε = O(1/ε).  Included as the *non-verifiable*
comparison point: the Concluding Remarks note that "making verifiable
Laplace or Gaussian noise is far from clear", which is why ΠBin uses
Binomial noise built from Bernoulli coins.

Sampling uses inverse-CDF on a uniform from the injected RNG so tests are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dp.mechanism import Mechanism, MechanismOutput
from repro.errors import ParameterError
from repro.utils.rng import RNG, default_rng

__all__ = ["LaplaceMechanism", "sample_laplace"]

_UNIFORM_BITS = 53


def _uniform_open(rng: RNG) -> float:
    """Uniform in (0, 1), never exactly 0 or 1."""
    while True:
        u = rng.randbits(_UNIFORM_BITS) / float(1 << _UNIFORM_BITS)
        if 0.0 < u < 1.0:
            return u


def sample_laplace(scale: float, rng: RNG | None = None) -> float:
    """Laplace(0, scale) via inverse CDF."""
    if scale <= 0:
        raise ParameterError("scale must be positive")
    rng = default_rng(rng)
    u = _uniform_open(rng) - 0.5
    return -scale * math.copysign(math.log(1.0 - 2.0 * abs(u)), u)


@dataclass
class LaplaceMechanism(Mechanism):
    """ε-DP mechanism adding Laplace(sensitivity/ε) noise."""

    epsilon: float
    sensitivity: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if self.sensitivity <= 0:
            raise ParameterError("sensitivity must be positive")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    def release(self, true_value: float, rng: RNG | None = None) -> MechanismOutput:
        noise = sample_laplace(self.scale, rng)
        return MechanismOutput(true_value + noise, noise)
