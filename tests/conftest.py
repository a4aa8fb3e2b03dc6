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


def _group_for(name: str):
    """What ``setup(group=...)`` takes for a backend id.

    ``"ristretto255"`` resolves to libsodium's backend where the host has
    it, so the two ids below pin one implementation each: the pure-Python
    reference, or libsodium (the test is skipped on a host without it).
    Every other id is a group name, passed on as it is.
    """
    if name == "ristretto255-pure":
        return RistrettoGroup.instance()
    if name == "ristretto255-sodium":
        from repro.crypto.sodium import SodiumRistrettoGroup

        native = SodiumRistrettoGroup.instance()
        if native is None:
            pytest.skip("libsodium with ristretto255 is not loadable on this host")
        return native
    return name


@pytest.fixture(scope="session")
def group_for():
    """``group_for(backend_id)``: see :func:`_group_for`."""
    return _group_for


@pytest.fixture(params=["libgmp", "refused"])
def power_loader(request) -> str:
    """Which code computes the variable-base powers of a Schnorr group
    built in this test (``SchnorrGroup.named.__wrapped__``) from
    ``schnorr_group._NATIVE_POWER_MIN_BITS`` up: libgmp's ``mpz_powm``
    (skipped on a host without it) or, with libgmp refused
    (``refused_powers``), CPython's ``pow``."""
    from repro.crypto import gmp

    if request.param == "refused":
        request.getfixturevalue("refused_powers")
    elif gmp._native_powers() is None:
        pytest.skip("libgmp is not loadable on this host")
    return request.param


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
