"""A fault on a request the analyst no longer waits for ends the session
as it did when the analyst waited.

The coin phase sends ``begin-coin-stream``, ``commit-coin-chunk`` (the
next prover's first chunk included), ``morra-sample``, ``morra-commit``
and ``absorb-bits`` ahead of reading their replies.  For each of them a
server answers with an abort reply or an undecodable frame, or dies on
receiving it — at the first, a middle and the last chunk of prover-0 and
of prover-1 — and every cheating prover runs once in each position.  The
outcome (the release bytes, or the abort's type and the party it names)
must be the one recorded at the parent commit, where each of those
requests was a full round trip, and every session must end well inside
its timeout.  Peers are threads on real sockets, so a dead server's
closed connection is seen at once.
"""

import functools
import hashlib
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.core import prover as provers
from repro.core.messages import ProverStatus
from repro.crypto.serialization import encode_message
from repro.errors import ProtocolAbort, ReproError
from repro.net import wire
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode, abort_peers
from repro.net.roles import peer_rng
from repro.net.transport import SocketTransport
from repro.utils.rng import SeededRNG

NB = 16
CHUNK = 4
QUERY = CountQuery(epsilon=1.0, delta=2**-10)
VALUES = [1, 0, 1, 1]
SERVERS = ["prover-0", "prover-1"]
TIMEOUT = 10.0

SENT_AHEAD = ["commit-coin-chunk", "morra-sample", "morra-commit", "absorb-bits"]
FAULTS = ["abort", "garbage", "kill"]

CHEATERS = {
    "biased": provers.BiasedCoinProver,
    "non-bit": provers.NonBitCoinProver,
    "skip-adjust": provers.SkipAdjustmentProver,
    "output-tamper": provers.OutputTamperingProver,
    "input-drop": functools.partial(provers.InputDroppingProver, victim="client-0"),
    "input-inject": provers.InputInjectingProver,
}


class FaultyServer(ServerNode):
    """Honest, except at the ``occurrence``-th ``method`` request (from 0)."""

    def __init__(self, *args, method, occurrence, fault, **kwargs):
        super().__init__(*args, **kwargs)
        self.fault = (method, occurrence, fault)
        self.seen = 0

    def _dispatch(self, method, parts):
        target, occurrence, fault = self.fault
        if method == target:
            self.seen += 1
            if self.seen == occurrence + 1:
                if fault == "kill":
                    raise SystemExit
                if fault == "abort":
                    return wire.encode_abort_reply("injected fault")
                return b"garbage"
        return super()._dispatch(method, parts)


def _serve(name, port, seed, server):
    transport = SocketTransport.connect(name, "analyst", port=port)
    try:
        server(transport, peer_rng(seed, name), timeout=TIMEOUT).run()
    except (ReproError, OSError, SystemExit):
        pass  # the analyst names a server that falls silent
    finally:
        transport.close()


def _clients(port, seed):
    transport = SocketTransport.connect("clients", "analyst", port=port)
    try:
        ClientRunner(transport, QUERY, VALUES, rng=SeededRNG(seed), timeout=TIMEOUT).run()
    except ReproError:
        pass  # a session that aborts publishes no release
    finally:
        transport.close()


def outcome(seed, servers):
    """One K = 2 session; ``servers`` maps a name to its node class.
    Returns the release's SHA-256 (first 16 hex digits) or the abort's
    ``(type, party)``, the release or None, and the seconds it took."""
    listener = SocketTransport.listen("analyst")
    threads = [
        threading.Thread(
            target=_serve,
            args=(name, listener.port, seed, servers.get(name, ServerNode)),
            daemon=True,
        )
        for name in SERVERS
    ]
    threads.append(threading.Thread(target=_clients, args=(listener.port, seed), daemon=True))
    for thread in threads:
        thread.start()
    start = time.monotonic()
    try:
        listener.accept(len(threads), TIMEOUT, expected=SERVERS + ["clients"])
        analyst = AnalystNode(
            QUERY,
            listener,
            SERVERS,
            group="p64-sim",
            nb_override=NB,
            chunk_size=CHUNK,
            rng=SeededRNG(seed),
            timeout=TIMEOUT,
        )
        try:
            release = analyst.run().release
        except ProtocolAbort as exc:
            abort_peers(listener, SERVERS, "test", clients_peer="clients")
            return (type(exc).__name__, exc.party), None, time.monotonic() - start
        digest = hashlib.sha256(encode_message(release)).hexdigest()[:16]
        return digest, release, time.monotonic() - start
    finally:
        listener.close()
        for thread in threads:
            thread.join(timeout=TIMEOUT)


def fault_cases():
    for name in SERVERS:
        for fault in FAULTS:
            yield name, "begin-coin-stream", 0, fault
            for method in SENT_AHEAD:
                for chunk in (0, 1, NB // CHUNK - 1):
                    yield name, method, chunk, fault


# Release SHA-256 (first 16 hex digits) per cheater and position,
# recorded at the parent commit.  There, every fault case above ended in a
# ProtocolAbort naming the faulted server — nothing else.
PARENT_RELEASES = {
    "prover-0/biased": "a7455b1271621f76",
    "prover-0/input-drop": "029a807bb9d4b400",
    "prover-0/input-inject": "164b751ba546f19d",
    "prover-0/non-bit": "839dd48104cd5b69",
    "prover-0/output-tamper": "bda2a973f64b34b1",
    "prover-0/skip-adjust": "00a2451930274423",
    "prover-1/biased": "838802a6d8a1a9ac",
    "prover-1/input-drop": "ef59ecb23b3b7736",
    "prover-1/input-inject": "ce77aae33217f936",
    "prover-1/non-bit": "97f7a35238ec050f",
    "prover-1/output-tamper": "f49c9bdf34903abd",
    "prover-1/skip-adjust": "9b4352486c6f7b05",
}


@pytest.mark.parametrize("name,method,chunk,fault", list(fault_cases()))
def test_a_fault_on_a_sent_ahead_request_ends_the_session_as_before(
    name, method, chunk, fault
):
    server = functools.partial(FaultyServer, method=method, occurrence=chunk, fault=fault)
    result, _, seconds = outcome(f"fault-{name}-{method}-{chunk}-{fault}", {name: server})
    assert result == ("ProtocolAbort", name)
    assert seconds < TIMEOUT / 2


@pytest.mark.parametrize("name", SERVERS)
@pytest.mark.parametrize("cheater", sorted(CHEATERS))
def test_a_cheating_prover_ends_the_session_as_before(cheater, name):
    server = functools.partial(ServerNode, prover_factory=CHEATERS[cheater])
    result, _, seconds = outcome(f"cheat-{cheater}-{name}", {name: server})
    assert result == PARENT_RELEASES[f"{name}/{cheater}"]
    assert seconds < TIMEOUT / 2


# prover-0's stream is given up at its first chunk's check, with chunk 1
# and its Morra pair already asked for.  Recorded at the parent, where the
# look-ahead was the chunk request alone: a fault on it is drained away,
# and a server that died on it is named unresponsive at shutdown.
DRAINED, UNRESPONSIVE = "83e4d51aa2a0f796", "20d801f7b8ac2c7f"


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("method", ["commit-coin-chunk", "morra-sample", "morra-commit"])
def test_a_fault_on_a_given_up_streams_look_ahead_keeps_the_verdict(method, fault):
    server = functools.partial(
        FaultyServer,
        prover_factory=provers.NonBitCoinProver,
        method=method,
        occurrence=1,
        fault=fault,
    )
    result, release, seconds = outcome("given-up", {"prover-0": server})
    assert seconds < TIMEOUT / 2
    assert release is not None, result
    assert release.audit.provers == {
        "prover-0": ProverStatus.BAD_COIN_PROOF,
        "prover-1": ProverStatus.HONEST,
    }
    # The Morra pair is the one frame pair the parent never sent; a server
    # that dies on it is named as one that died on the chunk request.
    assert result == (UNRESPONSIVE if fault == "kill" else DRAINED)
