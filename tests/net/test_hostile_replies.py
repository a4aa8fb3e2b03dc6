"""Hostile replies at ``RemoteProver`` (ROADMAP 5(b), second slice).

Every reply kind the proxy reads in the coin phase — ``begin-coin-stream``,
``commit-coin-chunk``, ``morra-sample``, ``morra-commit``,
``morra-reveal``, ``absorb-bits``, ``finish-output`` — is replaced by 200
seeded mutations of a genuine server reply (the ``mutations`` fixture:
truncations, bit flips, overwritten and appended bytes).  The proxy runs
under the real engine, one prover of two chunks, against a scripted
server replaying the genuine conversation with that one reply mutated,
in two timings: *queued* (every reply is waiting before the proxy asks —
how a sent-ahead request's reply is met) and *awaited* (the server
answers each request as it arrives, so the proxy is blocked in ``recv``).

The only allowed outcomes are a :class:`ProtocolAbort` naming the server
or a release; nothing may wait for a frame that is not coming (every run
ends well inside the proxy's timeout, and no abort is a timeout).
"""

import threading
import time

import pytest

from repro.api import ProtocolEngine
from repro.api.queries import CountQuery
from repro.errors import ProtocolAbort
from repro.net import wire
from repro.net.nodes import RemoteProver, ServerNode
from repro.net.transport import InMemoryHub, Transport
from repro.utils.rng import SeededRNG

QUERY = CountQuery(epsilon=1.0, delta=2**-10)
PARAMS = QUERY.build_params(num_provers=1, group="p64-sim", nb_override=4)
CHUNK = 2
TIMEOUT = 2.0
KINDS = [
    "begin-coin-stream",
    "commit-coin-chunk",
    "morra-sample",
    "morra-commit",
    "morra-reveal",
    "absorb-bits",
    "finish-output",
]
PER_KIND = 200


class _Log(Transport):
    """The analyst's transport, logging the methods it sends and the
    frames it receives."""

    def __init__(self, inner):
        super().__init__(inner.name)
        self.inner = inner
        self.sent = []
        self.received = []

    def _send(self, peer, frame):
        self.sent.append(wire.decode_rpc(frame)[0])
        self.inner.send(peer, frame)

    def _recv(self, peer, timeout):
        frame = self.inner.recv(peer, timeout)
        self.received.append(frame)
        return frame


def _release(transport):
    """Run one session's engine over a proxy on ``transport``."""
    proxy = RemoteProver("prover-0", transport, PARAMS, timeout=TIMEOUT)
    engine = ProtocolEngine(
        PARAMS, provers=[proxy], rng=SeededRNG("hostile"), chunk_size=CHUNK
    )
    return engine.run_release()


@pytest.fixture(scope="module")
def script():
    """The genuine conversation: ``(method, reply frame)`` in order."""
    hub = InMemoryHub()
    node = ServerNode(hub.endpoint("prover-0"), SeededRNG("hostile").fork("prover-0"))
    thread = threading.Thread(target=node.run, daemon=True)
    thread.start()
    analyst = hub.endpoint("analyst")
    analyst.send(
        "prover-0",
        wire.encode_control(
            "setup",
            wire.encode_params(PARAMS),
            wire.encode_plan(QUERY.build_plan()),
            b"prover-0",
        ),
    )
    analyst.recv("prover-0", TIMEOUT)
    log = _Log(analyst)
    assert _release(log).release.accepted
    analyst.send("prover-0", wire.encode_control("shutdown"))
    analyst.recv("prover-0", TIMEOUT)
    thread.join(timeout=TIMEOUT)
    assert sorted(set(log.sent)) == sorted(KINDS)
    return list(zip(log.sent, log.received))


def _replay(replies, timing):
    """The engine against a server that answers with ``replies``."""
    hub = InMemoryHub()
    analyst = hub.endpoint("analyst")
    server = hub.endpoint("prover-0")
    if timing == "queued":
        for reply in replies:
            server.send("analyst", reply)
        return _release(analyst)

    def answer():
        for reply in replies:
            if server.recv("analyst", TIMEOUT) == b"stop":
                return
            server.send("analyst", reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        return _release(analyst)
    finally:
        analyst.send("prover-0", b"stop")
        thread.join(timeout=TIMEOUT)


@pytest.mark.parametrize("timing", ["queued", "awaited"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_mutated_reply_aborts_naming_the_server_or_releases(
    script, mutations, kind, timing
):
    # The mutations take turns over every reply of the kind (both chunks').
    at = [i for i, (method, _) in enumerate(script) if method == kind]
    mutated = {i: mutations(script[i][1], PER_KIND, f"{kind}-{i}") for i in at}
    for n in range(PER_KIND):
        index = at[n % len(at)]
        replies = [reply for _, reply in script]
        replies[index] = mutated[index][n]
        start = time.monotonic()
        try:
            _replay(replies, timing)
        except ProtocolAbort as exc:
            assert exc.party == "prover-0", exc
            assert "timed out" not in str(exc), exc
        assert time.monotonic() - start < TIMEOUT / 2
