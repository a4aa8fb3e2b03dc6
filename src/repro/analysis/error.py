"""Empirical DP-Error measurement (Definition 6).

Backs the ``err`` experiment: central-model mechanisms (Binomial,
Laplace, Gaussian) have Err independent of n and O(1/ε), local
randomized response pays O(√n/ε), and the MPC instantiation of ΠBin pays
a factor √K over the single curator (K independent noise copies) — all
three relationships are measured here and asserted in tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.api import CountQuery, Session
from repro.dp.mechanism import Mechanism
from repro.dp.randomized_response import RandomizedResponse
from repro.errors import ParameterError
from repro.utils.rng import RNG, SeededRNG, default_rng

__all__ = ["empirical_error", "protocol_error"]


def empirical_error(
    mechanism: Mechanism,
    dataset: Sequence[int],
    trials: int,
    rng: RNG | None = None,
) -> float:
    """Mean |released - true| for a counting query over ``dataset``."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = default_rng(rng)
    true = float(sum(dataset))
    total = 0.0
    if isinstance(mechanism, RandomizedResponse):
        for _ in range(trials):
            total += abs(mechanism.run_protocol(dataset, rng).value - true)
    else:
        for _ in range(trials):
            total += abs(mechanism.release(true, rng).value - true)
    return total / trials


def protocol_error(
    dataset_bits: Sequence[int],
    epsilon: float,
    delta: float,
    *,
    num_provers: int = 1,
    trials: int = 20,
    group: str = "p128-sim",
    nb_override: int | None = None,
    seed: str = "protocol-error",
) -> float:
    """Mean |estimate - true| of full ΠBin runs (protocol-level Err).

    Expensive (each trial is a complete protocol execution); benchmarks
    use modest trial counts and the scaled test group.
    """
    query = CountQuery(epsilon, delta)
    true = float(sum(dataset_bits))
    total = 0.0
    for t in range(trials):
        session = Session(
            query,
            num_provers=num_provers,
            group=group,
            nb_override=nb_override,
            rng=SeededRNG(f"{seed}-{t}"),
        )
        session.submit(list(dataset_bits))
        result = session.release()
        if not result.accepted:
            raise ParameterError("honest run unexpectedly rejected")
        total += abs(result.results[0].estimate - true)
    return total / trials
