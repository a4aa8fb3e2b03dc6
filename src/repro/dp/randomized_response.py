"""Randomized response (Warner 1965) — the local-DP baseline.

Each client flips their true bit with probability p = 1/(1 + e^ε); the
aggregator debiases the sum.  Section 7 recounts its two structural
weaknesses, both reproduced by our experiments:

* **Accuracy**: Err = O(√n / ε) for a binary count, versus O(1/ε) in the
  central model (:func:`repro.analysis.error.empirical_error`) — the CSU21
  generalization says all LDP protocols pay this.
* **Manipulation**: a small fraction of deviating clients shifts the
  debiased estimate arbitrarily (no input validation is possible on
  plaintext-randomized reports); exercised in ``repro.attacks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.dp.mechanism import Mechanism, MechanismOutput
from repro.errors import ParameterError
from repro.utils.rng import RNG, default_rng

__all__ = ["RandomizedResponse"]


@dataclass
class RandomizedResponse(Mechanism):
    """ε-LDP randomized response for bit-valued client inputs."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")

    @property
    def flip_probability(self) -> float:
        """p = 1/(1 + e^ε): probability each client reports the wrong bit."""
        return 1.0 / (1.0 + math.exp(self.epsilon))

    def randomize_bit(self, bit: int, rng: RNG | None = None) -> int:
        """A single client's local randomizer."""
        if bit not in (0, 1):
            raise ParameterError("inputs must be bits")
        rng = default_rng(rng)
        u = rng.randbits(53) / float(1 << 53)
        return bit ^ (1 if u < self.flip_probability else 0)

    def aggregate(self, reports: Sequence[int]) -> float:
        """Debiased estimate of the true count from noisy reports.

        E[report_sum] = count·(1-p) + (n-count)·p, inverted for count.
        """
        n = len(reports)
        if n == 0:
            raise ParameterError("no reports")
        p = self.flip_probability
        return (sum(reports) - n * p) / (1.0 - 2.0 * p)

    def release(self, true_value: float, rng: RNG | None = None) -> MechanismOutput:
        """Scalar interface: treats ``true_value`` as a count of n=value ones.

        Provided for interface parity in error sweeps; prefer
        :meth:`run_protocol` for the full client-level simulation.
        """
        raise NotImplementedError(
            "randomized response is client-local; use run_protocol(dataset)"
        )

    def run_protocol(
        self, dataset: Sequence[int], rng: RNG | None = None
    ) -> MechanismOutput:
        """Simulate every client's local flip and debias the aggregate."""
        rng = default_rng(rng)
        reports = [self.randomize_bit(x, rng) for x in dataset]
        estimate = self.aggregate(reports)
        true = float(sum(dataset))
        return MechanismOutput(estimate, estimate - true)
