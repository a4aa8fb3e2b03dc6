"""Statistical tests for protocol randomness.

The completeness half of Theorem 4.1 says the protocol's noise is
*exactly* Binomial(nb, 1/2) and the Morra bits are unbiased; these
helpers turn those claims into testable statistics (chi-square
goodness-of-fit, total-variation distance) used by the test-suite and the
zero-knowledge indistinguishability checks.

scipy is imported by the two tests that need it, not here: the package
declares no dependencies, and ``python -m repro`` imports this module
through :mod:`repro.bench` on every run (DESIGN.md "Cold start").
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.dp.smoothness import binomial_log_pmf
from repro.errors import ParameterError

__all__ = [
    "chi_square_uniform",
    "binomial_goodness_of_fit",
    "total_variation_from_binomial",
]


def chi_square_uniform(bits: Sequence[int]) -> float:
    """p-value that a bit sequence is Bernoulli(1/2) i.i.d. (chi-square)."""
    n = len(bits)
    if n == 0:
        raise ParameterError("empty sample")
    from scipy import stats

    ones = sum(bits)
    observed = [n - ones, ones]
    result = stats.chisquare(observed, [n / 2.0, n / 2.0])
    return float(result.pvalue)


def binomial_goodness_of_fit(samples: Sequence[int], nb: int) -> float:
    """p-value that integer samples follow Binomial(nb, 1/2).

    Bins the support adaptively so expected counts stay above 5 (the
    usual chi-square validity rule).
    """
    n = len(samples)
    if n == 0:
        raise ParameterError("empty sample")
    pmf = [math.exp(binomial_log_pmf(nb, y)) for y in range(nb + 1)]

    # Greedy binning left to right until each bin expects >= 5.
    bins: list[tuple[int, int]] = []
    start = 0
    acc = 0.0
    for y in range(nb + 1):
        acc += pmf[y]
        if acc * n >= 5.0:
            bins.append((start, y))
            start = y + 1
            acc = 0.0
    if start <= nb:
        if bins:
            bins[-1] = (bins[-1][0], nb)
        else:
            bins.append((0, nb))

    counts = Counter(samples)
    observed = []
    expected = []
    for lo, hi in bins:
        observed.append(sum(counts.get(y, 0) for y in range(lo, hi + 1)))
        expected.append(n * sum(pmf[lo : hi + 1]))
    # Normalize tiny float drift so scipy's sum check passes.
    scale = sum(observed) / sum(expected)
    expected = [e * scale for e in expected]
    if len(observed) < 2:
        return 1.0
    from scipy import stats

    result = stats.chisquare(observed, expected)
    return float(result.pvalue)


def total_variation_from_binomial(samples: Sequence[int], nb: int) -> float:
    """Empirical TV distance between samples and Binomial(nb, 1/2)."""
    n = len(samples)
    if n == 0:
        raise ParameterError("empty sample")
    counts = Counter(samples)
    tv = 0.0
    support = set(counts) | set(range(nb + 1))
    for y in support:
        empirical = counts.get(y, 0) / n
        theoretical = math.exp(binomial_log_pmf(nb, y)) if 0 <= y <= nb else 0.0
        tv += abs(empirical - theoretical)
    return tv / 2.0
