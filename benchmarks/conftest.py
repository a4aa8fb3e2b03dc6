"""Shared fixtures for the benchmark suite.

Workload sizing: benchmarks run the paper's *operations* at reduced batch
sizes (pure Python); per-operation costs are what matter, since every
stage of ΠBin is linear in its batch size.  The experiment drivers
(``python -m repro <exp>``) print the extrapolations to paper scale.

Group choice: ``modp-2048`` is the paper's production backend and is used
for the microbenchmarks; the protocol-level benchmarks use ``p128-sim``
(identical code paths, smaller bignums) so the whole suite stays under a
few minutes.
"""

from __future__ import annotations

import pytest

from repro.core.params import setup
from repro.utils.rng import SeededRNG

PAPER_DELTA = 2**-10


@pytest.fixture(scope="session")
def params_2048():
    return setup(1.0, PAPER_DELTA, group="modp-2048", nb_override=31)


@pytest.fixture(scope="session")
def params_128():
    return setup(1.0, PAPER_DELTA, group="p128-sim", nb_override=31)


@pytest.fixture(scope="session")
def params_ristretto():
    return setup(1.0, PAPER_DELTA, group="ristretto255", nb_override=31)


@pytest.fixture()
def rng():
    return SeededRNG("bench")
