"""Mechanism interface and DP-Error (Definition 6).

A mechanism maps a dataset and query to a randomized output; its expected
L1 error relative to the true query answer is

    Err_{M,Q} = E[ ||Q(X) - M(X, Q)|| ]                    (Definition 6)

For counting queries, central-model mechanisms (Binomial, Laplace) achieve
Err = O(1/ε) independent of n, while local randomized response pays
Err = O(√n) — the separation quoted in Sections 2.2 and 7, measured by
:func:`repro.analysis.error.empirical_error`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.utils.rng import RNG

__all__ = ["Mechanism", "MechanismOutput", "counting_query"]


def counting_query(dataset: Sequence[int]) -> int:
    """Q(X) = Σ x_i — the paper's core query (1-incremental, sensitivity 1)."""
    return sum(dataset)


@dataclass(frozen=True)
class MechanismOutput:
    """A released value together with the noise that produced it.

    ``noise`` is retained for analysis/testing only; a real deployment
    never reveals it (revealing DP noise obviates it — the whole point of
    the paper is verifying noise *without* revealing it).
    """

    value: float
    noise: float


class Mechanism(abc.ABC):
    """An (ε, δ)-DP mechanism for real-valued queries."""

    epsilon: float
    delta: float

    @abc.abstractmethod
    def release(self, true_value: float, rng: RNG | None = None) -> MechanismOutput:
        """Release a noisy version of ``true_value``."""
