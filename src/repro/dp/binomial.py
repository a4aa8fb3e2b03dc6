"""The Binomial mechanism (Lemma 2.1, Appendix B).

Adding Z ~ Binomial(nb, 1/2) to a counting query is (ε, δ)-DP with

    ε = 10·sqrt((1/nb)·ln(2/δ))        for nb > 30, δ ∈ (0, o(1/nb)).

Inverting for the number of coins:

    nb = ⌈100·ln(2/δ) / ε²⌉            (:func:`coins_for_privacy`)

ΠBin constructs this noise one Bernoulli(1/2) coin at a time — each coin is
a prover's private bit XORed with a public Morra bit — which is exactly why
the protocol's cost is linear in nb and hence proportional to 1/ε²
(Figure 3).

Paper-consistency note: Table 1's caption pairs ε = 0.88, δ = 2⁻¹⁰ with
nb = 262144 = 2¹⁸; Lemma 2.1 actually gives nb = 985 for those values (and
ε ≈ 0.054 for nb = 2¹⁸).  We implement the lemma faithfully and provide
``round_to_power_of_two`` for benchmark parity with the paper's workload
sizes.  See DESIGN.md and `python -m repro table1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dp.mechanism import Mechanism, MechanismOutput
from repro.errors import ParameterError
from repro.utils.rng import RNG, default_rng

__all__ = [
    "coins_for_privacy",
    "epsilon_for_coins",
    "sample_binomial",
    "BinomialMechanism",
    "MIN_COINS",
]

# Lemma 2.1 requires nb > 30 for the smoothness bound to kick in.
MIN_COINS = 31


def coins_for_privacy(
    epsilon: float, delta: float, *, round_to_power_of_two: bool = False
) -> int:
    """Number of Bernoulli(1/2) coins for (ε, δ)-DP, per Lemma 2.1.

    nb = ⌈100·ln(2/δ)/ε²⌉, floored at :data:`MIN_COINS`.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ParameterError("delta must be in (0, 1)")
    nb = math.ceil(100.0 * math.log(2.0 / delta) / (epsilon * epsilon))
    nb = max(nb, MIN_COINS)
    if round_to_power_of_two:
        nb = 1 << (nb - 1).bit_length()
    return nb


def epsilon_for_coins(nb: int, delta: float) -> float:
    """ε = 10·sqrt((1/nb)·ln(2/δ)) — the forward direction of Lemma 2.1."""
    if nb < MIN_COINS:
        raise ParameterError(f"Lemma 2.1 requires nb > 30, got {nb}")
    if not 0 < delta < 1:
        raise ParameterError("delta must be in (0, 1)")
    return 10.0 * math.sqrt(math.log(2.0 / delta) / nb)


def sample_binomial(nb: int, rng: RNG | None = None) -> int:
    """Z ~ Binomial(nb, 1/2) by explicit coin flips.

    Intentionally flip-by-flip (not an inverse-CDF shortcut): this is the
    distribution the protocol realizes coin-by-coin, and tests compare the
    protocol's noise against this reference sampler.
    """
    if nb < 0:
        raise ParameterError("nb must be non-negative")
    rng = default_rng(rng)
    total = 0
    remaining = nb
    # Consume 64 coins per draw from the RNG for speed; same distribution.
    while remaining >= 64:
        total += int.bit_count(rng.randbits(64))
        remaining -= 64
    if remaining:
        total += int.bit_count(rng.randbits(remaining))
    return total


@dataclass
class BinomialMechanism(Mechanism):
    """(ε, δ)-DP counting-query mechanism adding Binomial(nb, 1/2) noise.

    The mechanism is *centred* optionally: the paper's protocol releases
    Q(X) + Z with Z ~ Binomial(nb, 1/2) (so outputs are biased by +nb/2,
    which the analyst subtracts publicly — nb is a public parameter).
    ``centred=True`` performs that subtraction at release time.
    """

    epsilon: float
    delta: float
    centred: bool = True
    round_to_power_of_two: bool = False
    nb: int = field(init=False)

    def __post_init__(self) -> None:
        self.nb = coins_for_privacy(
            self.epsilon, self.delta, round_to_power_of_two=self.round_to_power_of_two
        )

    def release(self, true_value: float, rng: RNG | None = None) -> MechanismOutput:
        z = sample_binomial(self.nb, rng)
        noise = z - (self.nb / 2.0 if self.centred else 0.0)
        return MechanismOutput(true_value + noise, noise)
