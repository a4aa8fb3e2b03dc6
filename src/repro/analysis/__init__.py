"""Analysis utilities: error measurement, distribution tests, and the
Section 5 separation demonstration."""

from repro.analysis.error import empirical_error, protocol_error
from repro.analysis.distributions import (
    chi_square_uniform,
    total_variation_from_binomial,
    binomial_goodness_of_fit,
)
from repro.analysis.separation import (
    discrete_log_bsgs,
    UnboundedEquivocator,
    ElGamalCommitmentScheme,
    demonstrate_separation,
)

__all__ = [
    "empirical_error",
    "protocol_error",
    "chi_square_uniform",
    "total_variation_from_binomial",
    "binomial_goodness_of_fit",
    "discrete_log_bsgs",
    "UnboundedEquivocator",
    "ElGamalCommitmentScheme",
    "demonstrate_separation",
]
