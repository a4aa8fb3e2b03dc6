"""Hostile enrollments at the analyst (ROADMAP 5(b), third slice).

Seeded mutations of honest enrollment bundles (the ``mutations`` fixture:
truncations, bit flips, overwritten and appended bytes) reach
``AnalystNode._ingest`` over ``InMemoryTransport`` after three honest
clients, for K ∈ {1, 2}, with real server nodes answering the
share-check RPCs.  Each mutated bundle belongs to a client of its own,
so no refusal of one hides what another would have done.

Each hostile frame has exactly one of two outcomes: one audit note that
drops or rejects it, or its admission as a client, which then never
counts as valid.  No exception escapes the analyst, and the honest
clients' release is the solo ``Session``'s: same output, same prover
and client verdicts.
"""

import threading

import pytest

from repro.api.engine import fork_rng
from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.core.messages import ClientStatus
from repro.net import wire
from repro.net.nodes import AnalystNode, ServerNode
from repro.net.transport import InMemoryHub, Transport
from repro.utils.rng import SeededRNG

QUERY = CountQuery(epsilon=1.0, delta=2**-10)
GROUP = "p64-sim"
NB = 4
HONEST = [1, 0, 1]
PER_K = 96
SEED = "hostile-enrollment"
TIMEOUT = 10.0
REFUSALS = ("dropped ", "rejected enrollment from ")


class _Reads(Transport):
    """The analyst's transport, calling ``before_read`` ahead of every
    read from the clients."""

    def __init__(self, inner):
        super().__init__(inner.name)
        self.inner = inner
        self.before_read = lambda: None

    def _send(self, peer, frame):
        self.inner.send(peer, frame)

    def _recv(self, peer, timeout):
        if peer == "clients":
            self.before_read()
        return self.inner.recv(peer, timeout)


class _Recording(AnalystNode):
    """The analyst, listing the client ids it admits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted = []

    def _admit(self, broadcast, privates, broadcast_frame):
        super()._admit(broadcast, privates, broadcast_frame)
        self.admitted.append(broadcast.client_id)


def _bundle(params, index, value):
    """Client ``index``'s enrollment frame, as ``ClientRunner`` builds it."""
    name = f"client-{index}"
    client = QUERY.make_client(name, value, fork_rng(SeededRNG(SEED), name))
    return wire.encode_enrollment(*client.submit(params))


def _serve(k, frames):
    """One session over ``frames``; returns the analyst, its (notes,
    admissions) count before each read from the clients, and the release."""
    hub = InMemoryHub()
    servers = [f"prover-{i}" for i in range(k)]
    threads = [
        threading.Thread(
            target=ServerNode(hub.endpoint(name), SeededRNG(SEED).fork(name)).run,
            daemon=True,
        )
        for name in servers
    ]
    for thread in threads:
        thread.start()
    transport = _Reads(hub.endpoint("analyst"))
    clients = hub.endpoint("clients")
    for frame in frames:
        clients.send("analyst", frame)
    clients.send("analyst", wire.encode_control("finalize"))
    analyst = _Recording(
        QUERY, transport, servers, group=GROUP, nb_override=NB,
        rng=SeededRNG(SEED), timeout=TIMEOUT,
    )
    counts = []
    transport.before_read = lambda: counts.append(
        (len(analyst.engine.verifier.audit.notes), len(analyst.admitted))
    )
    release = analyst.run().release
    for thread in threads:
        thread.join(timeout=TIMEOUT)
    return analyst, counts, release


@pytest.mark.parametrize("k", [1, 2])
def test_a_mutated_enrollment_is_refused_alone_or_admitted_invalid(k, mutations):
    params = QUERY.build_params(num_provers=k, group=GROUP, nb_override=NB)
    honest = [_bundle(params, i, value) for i, value in enumerate(HONEST)]
    # Mutation n hits client 3 + n's bundle; the kinds take turns.
    hostile = [
        mutations(_bundle(params, 3 + n, n % 2), n % 4 + 1, f"enroll-{k}-{n}")[-1]
        for n in range(PER_K)
    ]
    analyst, counts, release = _serve(k, honest + hostile)

    notes = release.audit.notes
    effects = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(counts, counts[1:])]
    assert effects[: len(honest)] == [(0, 1)] * len(honest)
    for n, effect in enumerate(effects[len(honest):]):
        if effect == (1, 0):
            assert notes[counts[len(honest) + n][0]].startswith(REFUSALS), n
        else:
            assert effect == (0, 1), (n, effect)

    solo = Session(QUERY, num_provers=k, group=GROUP, nb_override=NB, rng=SeededRNG(SEED))
    solo.submit(HONEST)
    expected = solo.release().release
    intruders = set(analyst.admitted[len(honest):])
    assert (release.raw, release.estimate, release.accepted) == (
        expected.raw, expected.estimate, expected.accepted
    )
    assert release.audit.provers == expected.audit.provers
    assert {
        client: status
        for client, status in release.audit.clients.items()
        if client not in intruders
    } == expected.audit.clients
    assert all(release.audit.clients[c] is not ClientStatus.VALID for c in intruders)
