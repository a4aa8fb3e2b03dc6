"""The full ΠBin protocol on every group backend.

The commitment and Σ-proof layers are written against the abstract Group
interface; these end-to-end runs prove the claim for every backend
(finite-field Schnorr groups, and ristretto255 on both libsodium and
the pure-Python reference).  Tiny nb keeps the curve
runs quick.
"""

import pytest

from repro.api import CountQuery, ProtocolEngine, Session
from repro.core.client import Client
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver
from repro.utils.rng import SeededRNG

BACKENDS = ["p64-sim", "p128-sim", "p256-sim", "ristretto255", "ristretto255-pure"]


def honest_count(bits, *, k, group, nb, seed):
    session = Session(
        CountQuery(1.0, 2**-10),
        num_provers=k, group=group, nb_override=nb, rng=SeededRNG(seed),
    )
    session.submit(bits)
    return session.release()


@pytest.mark.parametrize("backend", BACKENDS)
def test_honest_run_on_backend(backend, group_for):
    result = honest_count([1, 0, 1], k=1, group=group_for(backend), nb=4, seed=f"be-{backend}")
    assert result.release.accepted
    noise = result.release.raw[0] - 2
    assert 0 <= noise <= 4


@pytest.mark.parametrize("backend", ["ristretto255", "ristretto255-pure"])
def test_cheater_caught_on_elliptic_backends(backend, group_for):
    params = setup(1.0, 2**-10, num_provers=1, group=group_for(backend), nb_override=4)
    cheater = OutputTamperingProver(
        "prover-0", params, SeededRNG(f"ch-{backend}"), bias=3
    )
    rng = SeededRNG(f"r-{backend}")
    engine = ProtocolEngine(params, provers=[cheater], rng=rng)
    engine.submit_clients(
        Client(f"client-{i}", [1], rng.fork(f"client-{i}")) for i in range(2)
    )
    assert not engine.run_release().release.accepted


def test_mpc_on_modp2048_smoke():
    """One small paper-backend (2048-bit) MPC run keeps the production
    parameter path exercised."""
    result = honest_count([1], k=2, group="modp-2048", nb=2, seed="2048")
    assert result.release.accepted
