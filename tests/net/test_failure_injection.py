"""Transport-level failure injection: a peer dying mid-phase.

tests/net's tamper tests cover *wrong bytes*; these cover *no bytes*: a
prover that goes silent between COMMIT_COINS and MORRA (its coin
commitments are in, its Morra contributions never come).  The front-end
must raise a :class:`ProtocolAbort` naming that prover within its
timeout — never hang — and a fleet front-end serving several sessions
must contain the damage to the dead peer's session.
"""

import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ProtocolAbort
from repro.net import roles
from repro.net.fleet import FleetConfig, FleetDispatcher, SessionRequest
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode
from repro.net.transport import InMemoryHub
from repro.utils.rng import SeededRNG

DELTA = 2**-10
QUERY = CountQuery(epsilon=1.0, delta=DELTA)


class _DieBeforeMorra(ServerNode):
    """Serves faithfully through COMMIT_COINS, then drops dead: the first
    Morra RPC never gets a reply and the node thread exits."""

    def _dispatch(self, method, parts):
        if method == "morra-sample":
            raise SystemExit
        return super()._dispatch(method, parts)


class TestSyncPeerDeath:
    def test_dead_prover_aborts_attributed_not_hangs(self):
        """In-memory topology, prover-1 dies between COMMIT_COINS and
        MORRA: AnalystNode raises ProtocolAbort(party='prover-1') within
        its recv timeout."""
        hub = InMemoryHub()
        seed = "die-sync"
        threads = []

        def server_main(node):
            try:
                node.run()
            except (ProtocolAbort, SystemExit):
                pass  # the survivor aborts once the analyst is gone

        for name, cls in [("prover-0", ServerNode), ("prover-1", _DieBeforeMorra)]:
            node = cls(hub.endpoint(name), SeededRNG(seed).fork(name), timeout=5.0)
            threads.append(
                threading.Thread(target=server_main, args=(node,), daemon=True)
            )
        runner = ClientRunner(
            hub.endpoint("clients"), QUERY, [1, 0, 1], rng=SeededRNG(seed), timeout=5.0
        )

        def clients_main():
            try:
                runner.run()
            except ProtocolAbort:
                pass  # the analyst dies before publishing a release

        threads.append(threading.Thread(target=clients_main, daemon=True))
        for thread in threads:
            thread.start()
        analyst = AnalystNode(
            QUERY,
            hub.endpoint("analyst"),
            ["prover-0", "prover-1"],
            group="p64-sim",
            nb_override=16,
            rng=SeededRNG(seed),
            timeout=2.0,
        )
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as err:
            analyst.run()
        assert err.value.party == "prover-1"
        assert time.monotonic() - start < 20.0

    def test_dead_prover_aborts_attributed_over_sockets(self):
        """Same death over TCP: the closed socket is attributed to the
        dead prover immediately (no timeout wait)."""
        from repro.net.transport import SocketTransport

        seed = "die-socket"
        listener = SocketTransport.listen("analyst")
        threads = []

        def server_main(name, cls):
            transport = SocketTransport.connect(name, "analyst", port=listener.port)
            try:
                cls(transport, SeededRNG(seed).fork(name), timeout=10.0).run()
            except (ProtocolAbort, SystemExit):
                # The dying prover exits with its socket closed, as a
                # crashed process would; the survivor aborts once the
                # analyst hangs up.
                transport.close()

        for name, cls in [("prover-0", ServerNode), ("prover-1", _DieBeforeMorra)]:
            threads.append(
                threading.Thread(target=server_main, args=(name, cls), daemon=True)
            )

        def clients_main():
            transport = SocketTransport.connect("clients", "analyst", port=listener.port)
            try:
                ClientRunner(
                    transport, QUERY, [1, 0, 1], rng=SeededRNG(seed), timeout=10.0
                ).run()
            except ProtocolAbort:
                pass  # the analyst dies before publishing a release

        threads.append(threading.Thread(target=clients_main, daemon=True))
        for thread in threads:
            thread.start()
        listener.accept(3, 10.0)
        analyst = AnalystNode(
            QUERY,
            listener,
            ["prover-0", "prover-1"],
            group="p64-sim",
            nb_override=16,
            rng=SeededRNG(seed),
            timeout=10.0,
        )
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as err:
            analyst.run()
        assert err.value.party == "prover-1"
        # Attribution came from the closed socket, not a timeout expiry.
        assert time.monotonic() - start < 8.0
        listener.close()


class TestFrontEndPeerDeath:
    def test_dead_session_contained_others_release(self, monkeypatch):
        """One front-end serving two sessions at once: session 1's
        prover-1 dies between COMMIT_COINS and MORRA.  Session 1 ends in
        an attributed abort; session 0 still releases byte-identical to
        its solo run."""
        run = "die-frontend"
        victim = f"{run}/s1"
        real_run_role = roles.run_role

        def run_role(role, name, transport, **kwargs):
            # Inherited by the forked front-end, whose sessions start
            # their peers through roles.run_role.
            if (name, kwargs["seed"]) != ("prover-1", victim):
                return real_run_role(role, name, transport, **kwargs)
            transport = transport()
            try:
                _DieBeforeMorra(
                    transport, roles.peer_rng(victim, name), timeout=10.0
                ).run()
            except (ProtocolAbort, SystemExit):
                pass  # the dying prover exits as a crashed process would
            finally:
                transport.close()

        monkeypatch.setattr(roles, "run_role", run_role)
        config = FleetConfig(
            frontends=1, capacity=2, num_servers=2, nb_override=16, timeout=10.0
        )
        requests = [
            SessionRequest(s, QUERY, [1, 0, 1], seed=f"{run}/s{s}") for s in range(2)
        ]
        start = time.monotonic()
        with FleetDispatcher(config) as dispatcher:
            for request in requests:
                dispatcher.place(request, "fe-0")
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
            healthy, dead = (dispatcher.outcomes[s] for s in range(2))
        assert time.monotonic() - start < 60.0

        # The dead peer's session aborted, attributed.
        assert dead.status == "aborted", dead
        assert dead.party == "prover-1"

        # The healthy session is untouched: byte-identical to solo.
        assert healthy.status == "released", healthy
        assert healthy.accepted
        solo = Session(
            QUERY,
            num_provers=2,
            group="p64-sim",
            nb_override=16,
            rng=SeededRNG(f"{run}/s0"),
        )
        solo.submit([1, 0, 1])
        assert encode_message(solo.release().release) == healthy.release_frame
