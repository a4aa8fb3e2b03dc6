"""The engine's phase schedule, walked as a state machine.

Every transition the engine makes is one of ``api.phases.TRANSITIONS``,
and the sequence of phase-observer calls — what ``/metrics``' phase
histograms and the ``api.engine.phase.*`` ledger lines are built from —
is the one recorded at the parent commit, before the coin phase sent the
Morra pair with each chunk request and opened the next prover's stream
early.  Pinned for K ∈ {1, 2, 3} × ``chunk_size`` ∈ {None, 1, 3, nb}, in
process and over ``InMemoryTransport``, for an honest run and for a run
whose first prover's stream is given up at its first or at its last
chunk (``NonBitCoinProver``).
"""

import functools
import hashlib
import threading

import pytest

from repro.api import ProtocolEngine
from repro.api.engine import add_phase_observer, remove_phase_observer
from repro.api.phases import TRANSITIONS, Phase
from repro.api.queries import CountQuery
from repro.core import prover as provers
from repro.core.client import Client
from repro.core.messages import ProverStatus
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode
from repro.net.roles import peer_rng
from repro.net.transport import InMemoryHub
from repro.utils.rng import SeededRNG

NB = 8
QUERY = CountQuery(epsilon=1.0, delta=2**-10)
VALUES = [1, 0, 1]
CHUNKS = [None, 1, 3, NB]


class LastChunkNonBitProver(provers.NonBitCoinProver):
    """Honest until coin ``first_bad``; from there on it commits 2 and
    forges, so only the stream's last chunk fails."""

    def __init__(self, name, params, rng=None, *, first_bad, plan=None):
        super().__init__(name, params, rng, plan=plan)
        self.first_bad = first_bad

    def choose_coin(self, j, m):
        if j >= self.first_bad:
            return super().choose_coin(j, m)
        return provers.Prover.choose_coin(self, j, m)

    def _prove_coins(self, commitments, openings, transcript):
        if any(opening.value not in (0, 1) for opening in openings):
            return super()._prove_coins(commitments, openings, transcript)
        return provers.Prover._prove_coins(self, commitments, openings, transcript)


def cheater(cast, chunk):
    """The first prover's factory for ``cast``, or None for an honest run."""
    if cast == "honest":
        return None
    if cast == "first":
        return provers.NonBitCoinProver
    size = chunk or NB
    return functools.partial(LastChunkNonBitProver, first_bad=(NB - 1) // size * size)


def observed(run):
    """The (previous, new) phase of every observer call ``run()`` makes
    on this thread."""
    calls = []
    mine = threading.current_thread()

    def observer(previous, new, elapsed):
        if threading.current_thread() is mine:
            calls.append((previous, new))

    add_phase_observer(observer)
    try:
        release = run()
    finally:
        remove_phase_observer(observer)
    return calls, release


def in_process(k, chunk, cast):
    seed = f"schedule-{k}-{chunk}-{cast}"
    rng = SeededRNG(seed)
    params = QUERY.build_params(num_provers=k, group="p64-sim", nb_override=NB)
    first = cheater(cast, chunk) or provers.Prover
    cast_provers = [
        (first if i == 0 else provers.Prover)(f"prover-{i}", params, rng.fork(f"prover-{i}"))
        for i in range(k)
    ]

    def run():
        engine = ProtocolEngine(params, provers=cast_provers, rng=rng, chunk_size=chunk)
        engine.submit_clients(
            Client(f"client-{i}", [v], rng.fork(f"client-{i}")) for i, v in enumerate(VALUES)
        )
        return engine.run_release().release

    return observed(run)


def over_memory(k, chunk, cast):
    seed = f"schedule-{k}-{chunk}-{cast}"
    hub = InMemoryHub()
    servers = [f"prover-{i}" for i in range(k)]
    nodes = [
        ServerNode(
            hub.endpoint(name),
            peer_rng(seed, name),
            prover_factory=cheater(cast, chunk) if i == 0 else None,
            timeout=10.0,
        )
        for i, name in enumerate(servers)
    ]
    runner = ClientRunner(
        hub.endpoint("clients"), QUERY, VALUES, rng=SeededRNG(seed), timeout=10.0
    )
    threads = [threading.Thread(target=node.run, daemon=True) for node in nodes]
    threads.append(threading.Thread(target=runner.run, daemon=True))
    for thread in threads:
        thread.start()
    analyst = AnalystNode(
        QUERY,
        hub.endpoint("analyst"),
        servers,
        group="p64-sim",
        nb_override=NB,
        chunk_size=chunk,
        rng=SeededRNG(seed),
        timeout=10.0,
    )
    try:
        return observed(lambda: analyst.run().release)
    finally:
        for thread in threads:
            thread.join(timeout=10.0)


def digest(calls):
    text = " ".join(f"{previous.value}>{new.value}" for previous, new in calls)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 (first 16 hex digits) of the observer calls, recorded at the
# parent commit — identical there in process and over the memory hub.
# A stream given up at its last chunk walks the honest run's phases.
PARENT_SCHEDULES = {
    "1-None-honest": "a7ad9113e75f830f",
    "1-None-first": "a7ad9113e75f830f",
    "1-None-last": "a7ad9113e75f830f",
    "1-1-honest": "8483fa1484d65c29",
    "1-1-first": "70de55a308787899",
    "1-1-last": "8483fa1484d65c29",
    "1-3-honest": "503395260b65e640",
    "1-3-first": "70de55a308787899",
    "1-3-last": "503395260b65e640",
    "1-8-honest": "a7ad9113e75f830f",
    "1-8-first": "a7ad9113e75f830f",
    "1-8-last": "a7ad9113e75f830f",
    "2-None-honest": "34c67e7a394d8269",
    "2-None-first": "34c67e7a394d8269",
    "2-None-last": "34c67e7a394d8269",
    "2-1-honest": "82fea3b78dce535e",
    "2-1-first": "11c7e81d18344113",
    "2-1-last": "82fea3b78dce535e",
    "2-3-honest": "813dbe232b1ad1bf",
    "2-3-first": "684772156b6fe64e",
    "2-3-last": "813dbe232b1ad1bf",
    "2-8-honest": "34c67e7a394d8269",
    "2-8-first": "34c67e7a394d8269",
    "2-8-last": "34c67e7a394d8269",
    "3-None-honest": "503395260b65e640",
    "3-None-first": "503395260b65e640",
    "3-None-last": "503395260b65e640",
    "3-1-honest": "c1d1545834ec81c3",
    "3-1-first": "6610b102303a1cf1",
    "3-1-last": "c1d1545834ec81c3",
    "3-3-honest": "f4ab1b1a740cdbbc",
    "3-3-first": "9860845bc8897772",
    "3-3-last": "f4ab1b1a740cdbbc",
    "3-8-honest": "503395260b65e640",
    "3-8-first": "503395260b65e640",
    "3-8-last": "503395260b65e640",
}


@pytest.mark.parametrize("path", ["engine", "memory"])
@pytest.mark.parametrize("cast", ["honest", "first", "last"])
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_phase_observer_calls_are_the_parents(k, chunk, cast, path):
    calls, release = (in_process if path == "engine" else over_memory)(k, chunk, cast)
    for previous, new in calls:
        assert new in TRANSITIONS[previous], f"{previous} -> {new}"
    assert calls[0] == (Phase.ENROLL, Phase.VALIDATE)
    assert calls[-1] == (Phase.RELEASE, Phase.DONE)
    expected = ProverStatus.HONEST if cast == "honest" else ProverStatus.BAD_COIN_PROOF
    assert release.audit.provers["prover-0"] is expected
    assert all(
        release.audit.provers[f"prover-{i}"] is ProverStatus.HONEST for i in range(1, k)
    )
    assert digest(calls) == PARENT_SCHEDULES[f"{k}-{chunk}-{cast}"]
