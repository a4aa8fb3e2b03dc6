"""Differential-privacy mechanisms and accounting.

The paper's protocol uses the **Binomial mechanism** (Lemma 2.1 /
Appendix B): add Z ~ Binomial(nb, 1/2) to a counting query, with

    ε = 10·sqrt((1/nb)·ln(2/δ))   for nb > 30, i.e.  nb = ⌈100·ln(2/δ)/ε²⌉.

Binomial noise is the only "simple randomness" for which verifiability is
known (Concluding Remarks); Laplace and randomized response are provided
as non-verifiable baselines for the error experiments.
"""

from repro.dp.mechanism import Mechanism, MechanismOutput, counting_query
from repro.dp.binomial import (
    BinomialMechanism,
    coins_for_privacy,
    epsilon_for_coins,
    sample_binomial,
)
from repro.dp.smoothness import smoothness_delta
from repro.dp.laplace import LaplaceMechanism
from repro.dp.randomized_response import RandomizedResponse
from repro.dp.accountant import PrivacyAccountant

__all__ = [
    "Mechanism",
    "MechanismOutput",
    "counting_query",
    "BinomialMechanism",
    "coins_for_privacy",
    "epsilon_for_coins",
    "sample_binomial",
    "smoothness_delta",
    "LaplaceMechanism",
    "RandomizedResponse",
    "PrivacyAccountant",
]
