"""(ε, δ, k)-smoothness of noise distributions (Definition 13, Appendix B).

A distribution D over Z is (ε, δ, k)-smooth if for every shift |k'| <= k,

    Pr_{Y~D}[  Pr[Y' = Y] / Pr[Y' = Y + k']  >=  e^{|k'|ε}  ]  <=  δ.

Lemma B.1 turns smoothness into DP: adding smooth noise to a k-incremental
query of L1-sensitivity Δ is (εΔ, δΔ)-DP.  Lemma B.2 shows
Binomial(n, p <= 1/2) is smooth.  This module computes the *exact*
smoothness failure mass for the Binomial by direct enumeration of the PMF,
so tests can check Lemma 2.1's constants end-to-end (and show the paper's
bound is conservative).
"""

from __future__ import annotations

import math

from repro.errors import ParameterError

__all__ = ["binomial_log_pmf", "smoothness_delta"]


def binomial_log_pmf(n: int, y: int) -> float:
    """log Pr[Binomial(n, 1/2) = y] computed stably via lgamma."""
    if not 0 <= y <= n:
        return float("-inf")
    return (
        math.lgamma(n + 1)
        - math.lgamma(y + 1)
        - math.lgamma(n - y + 1)
        - n * math.log(2.0)
    )


def smoothness_delta(n: int, epsilon: float, k: int = 1) -> float:
    """Exact δ for which Binomial(n, 1/2) is (ε, δ, k)-smooth.

    δ = max over |k'| <= k of Pr_Y[ log PMF(Y) - log PMF(Y+k') >= |k'|·ε ].
    Enumerates the full PMF (O(n·k) time), fine for nb up to ~10^6.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if k < 1:
        raise ParameterError("k must be at least 1")

    log_pmf = [binomial_log_pmf(n, y) for y in range(n + 1)]
    worst = 0.0
    for shift in range(-k, k + 1):
        if shift == 0:
            continue
        threshold = abs(shift) * epsilon
        mass = 0.0
        for y in range(n + 1):
            target = y + shift
            if 0 <= target <= n:
                ratio = log_pmf[y] - log_pmf[target]
            else:
                ratio = float("inf")  # denominator zero: ratio unbounded
            if ratio >= threshold:
                mass += math.exp(log_pmf[y])
        worst = max(worst, mass)
    return worst
