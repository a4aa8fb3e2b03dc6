"""Shared fixtures.

Crypto tests run on the small simulation groups ("p64-sim"/"p128-sim") —
identical code paths to production parameters at a fraction of the cost;
the named production group ("modp-2048") is exercised by a handful of
smoke tests and the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.crypto.pedersen import PedersenParams
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.schnorr_group import SchnorrGroup
from repro.utils.rng import SeededRNG


@pytest.fixture(scope="session")
def group64() -> SchnorrGroup:
    return SchnorrGroup.named("p64-sim")


@pytest.fixture(scope="session")
def group128() -> SchnorrGroup:
    return SchnorrGroup.named("p128-sim")


@pytest.fixture(scope="session")
def ristretto() -> RistrettoGroup:
    return RistrettoGroup.instance()


@pytest.fixture(scope="session")
def pedersen64(group64) -> PedersenParams:
    return PedersenParams(group64)


@pytest.fixture(scope="session")
def pedersen128(group128) -> PedersenParams:
    return PedersenParams(group128)


@pytest.fixture()
def rng() -> SeededRNG:
    return SeededRNG("pytest")


def make_rng(label: str) -> SeededRNG:
    return SeededRNG(f"pytest-{label}")


def _mutations(data: bytes, count: int, label: str) -> list[bytes]:
    """``count`` seeded corruptions of ``data``, cycling through a
    truncation, one flipped bit, one overwritten byte and appended bytes."""
    rng = SeededRNG(f"mutate-{label}")
    out = []
    for i in range(count):
        at = rng.randbelow(len(data))
        if i % 4 == 0:
            out.append(data[:at])
        elif i % 4 == 1:
            out.append(data[:at] + bytes([data[at] ^ (1 << rng.randbelow(8))]) + data[at + 1:])
        elif i % 4 == 2:
            out.append(data[:at] + bytes([rng.randbelow(256)]) + data[at + 1:])
        else:
            out.append(data + rng.random_bytes(1 + rng.randbelow(8)))
    return out


@pytest.fixture()
def mutations():
    """Hostile-bytes generator: ``mutations(data, count, label)``."""
    return _mutations
