"""Serving-layer lifecycle regressions: startup leaks and teardown stalls.

Bugs fixed in the serve layer, pinned here:

* a failed ``accept`` in the socket launcher used to leak every started
  child process *and* the listening socket — the cleanup closure was
  only returned on success;
* peer shutdown used to be serial with a full protocol-timeout recv per
  peer, so one dead peer stalled teardown by timeout × remaining peers,
  and the bare ``except ReproError: pass`` discarded which peer was
  dead;
* ``repro serve`` used to exit the same way for a protocol abort and
  dead infrastructure, so a supervisor (the fleet dispatcher, CI, an
  init system) could not tell "a party cheated/went silent" from "the
  serving substrate broke" — now they are distinct exit codes with the
  attributed party on stderr.
"""

import socket
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.cli import _serve_parser
from repro.core.messages import AuditRecord
from repro.errors import ParameterError, ProtocolAbort
from repro.net import serve
from repro.net.nodes import shutdown_peers
from repro.net.transport import InMemoryHub
from repro.net.wire import decode_control, encode_reply

DELTA = 2**-10


class _RecordingContext:
    """Wraps a multiprocessing context so the test can see every child
    the serve layer spawns (they are otherwise unreachable after a
    startup failure — which is exactly the bug)."""

    def __init__(self, context, spawned):
        self._context = context
        self._spawned = spawned

    def Process(self, *args, **kwargs):
        process = self._context.Process(*args, **kwargs)
        self._spawned.append(process)
        return process


class TestFailedStartupLeaks:
    def test_failed_socket_accept_terminates_children(self, monkeypatch):
        """Children that never handshake force an accept timeout; the
        startup must terminate every started child and close the
        listener instead of leaking them."""

        def never_connects(*args, **kwargs):  # runs in the forked child
            time.sleep(120)

        monkeypatch.setattr(serve, "run_role", never_connects)
        spawned = []
        real_get_context = serve.get_context
        monkeypatch.setattr(
            serve,
            "get_context",
            lambda kind: _RecordingContext(real_get_context(kind), spawned),
        )

        listeners = []
        real_listen = serve.SocketTransport.listen

        def recording_listen(*args, **kwargs):
            listeners.append(real_listen(*args, **kwargs))
            return listeners[-1]

        monkeypatch.setattr(serve.SocketTransport, "listen", recording_listen)

        query = CountQuery(epsilon=1.0, delta=DELTA)
        start = time.monotonic()
        with pytest.raises(ProtocolAbort):
            serve._start_peers(
                "socket",
                serve.peer_roles(2, 0),
                query,
                [1, 0],
                "leak",
                "127.0.0.1",
                0,
                1.0,
            )
        assert time.monotonic() - start < 30.0
        assert len(spawned) == 3  # 2 servers + 1 client runner
        (listener,) = listeners
        assert listener._listener.fileno() == -1, "failed accept leaked the listener"
        for process in spawned:
            process.join(timeout=10.0)
        assert all(not process.is_alive() for process in spawned), (
            "failed accept leaked live children"
        )

    def test_async_listener_backlog_holds_every_connection(self, monkeypatch):
        """``--async`` binds its listener before forking and the children
        dial before the event loop accepts, so the pre-fork backlog must
        hold every connection: one per peer per session, (K + S + 1)·N.
        A SYN past a full queue waits for a ≈ 1 s retransmit."""
        backlogs = []
        real_listen = socket.socket.listen

        def recording_listen(sock, *args):
            backlogs.append(args[0] if args else None)
            return real_listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", recording_listen)
        sessions, servers, shards = 8, 2, 2
        outcome = serve.run_async_sessions(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            sessions=sessions,
            num_servers=servers,
            shards=shards,
            group="p64-sim",
            nb_override=16,
            seed="backlog",
            timeout=60.0,
        )
        assert outcome["accepted"] and outcome["byte_identical"]
        # The first listen is the pre-fork one; asyncio re-listens later.
        assert backlogs[0] >= (servers + shards + 1) * sessions

    def test_successful_socket_startup_unaffected(self):
        """The guarded startup still hands back a working transport and
        cleanup on the happy path (exercised fully by run_distributed_
        session elsewhere; here just the guard's pass-through)."""
        outcome = serve.run_distributed_session(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="socket",
            num_servers=1,
            group="p64-sim",
            nb_override=16,
            seed="lifecycle",
            timeout=60.0,
        )
        assert outcome["accepted"] and outcome["byte_identical"]


class TestConcurrentShutdown:
    def _hub_with_peers(self, alive, dead):
        hub = InMemoryHub()
        analyst = hub.endpoint("analyst")
        threads = []
        for name in alive:
            endpoint = hub.endpoint(name)

            def ack(endpoint=endpoint):
                frame = endpoint.recv("analyst", timeout=10.0)
                kind, _ = decode_control(frame)
                assert kind == "shutdown"
                endpoint.send("analyst", encode_reply())

            threads.append(threading.Thread(target=ack, daemon=True))
        for name in dead:
            hub.endpoint(name)  # registered, never answers
        for thread in threads:
            thread.start()
        return analyst, threads

    def test_one_dead_peer_costs_grace_not_timeout_per_peer(self):
        """Old behavior: timeout recv per dead peer, serially — here
        60 s × 1 dead peer before the last healthy ack.  New behavior:
        every shutdown is sent first, acks collect under one short
        shared grace, and the dead peer is named in the audit."""
        analyst, threads = self._hub_with_peers(
            alive=["prover-0", "prover-2"], dead=["prover-1"]
        )
        audit = AuditRecord()
        start = time.monotonic()
        unresponsive = shutdown_peers(
            analyst,
            ["prover-0", "prover-1", "prover-2"],
            60.0,
            audit,
            grace=0.5,
        )
        elapsed = time.monotonic() - start
        assert unresponsive == ["prover-1"]
        assert elapsed < 10.0, f"teardown stalled {elapsed:.1f}s"
        assert any(
            "unresponsive at shutdown" in note and "prover-1" in note
            for note in audit.notes
        ), audit.notes
        for thread in threads:
            thread.join(timeout=10.0)

    def test_all_healthy_peers_ack_and_nothing_is_noted(self):
        analyst, threads = self._hub_with_peers(
            alive=["prover-0", "prover-1"], dead=[]
        )
        audit = AuditRecord()
        unresponsive = shutdown_peers(
            analyst, ["prover-0", "prover-1"], 60.0, audit, grace=5.0
        )
        assert unresponsive == []
        assert audit.notes == []
        for thread in threads:
            thread.join(timeout=10.0)


class TestExitCodes:
    """`repro serve` exit codes: a supervisor must be able to tell a
    protocol abort (restartable policy decision) from dead
    infrastructure (restart the substrate) without parsing stderr —
    though stderr does name the attributed party."""

    def _args(self, *extra):
        return _serve_parser().parse_args(list(extra))

    def test_protocol_abort_exits_3_with_party_on_stderr(
        self, monkeypatch, capsys
    ):
        def abort(*args, **kwargs):
            raise ProtocolAbort("prover went silent mid-Morra", party="prover-1")

        monkeypatch.setattr(serve, "run_distributed_session", abort)
        code = serve.main(self._args())
        assert code == serve.EXIT_PROTOCOL_ABORT == 3
        err = capsys.readouterr().err
        assert "protocol abort" in err
        assert "prover-1" in err

    def test_unattributed_abort_still_exits_3(self, monkeypatch, capsys):
        def abort(*args, **kwargs):
            raise ProtocolAbort("timed out accepting peers")

        monkeypatch.setattr(serve, "run_async_sessions", abort)
        code = serve.main(self._args("--async"))
        assert code == serve.EXIT_PROTOCOL_ABORT
        assert "unattributed" in capsys.readouterr().err

    def test_infrastructure_crash_exits_4(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise OSError("address already in use")

        monkeypatch.setattr(serve, "run_fleet", crash)
        code = serve.main(self._args("--fleet"))
        assert code == serve.EXIT_INFRA_CRASH == 4
        err = capsys.readouterr().err
        assert "infrastructure crash" in err
        assert "address already in use" in err

    def test_usage_error_exits_2(self, monkeypatch, capsys):
        def reject(*args, **kwargs):
            raise ParameterError("shards must be >= 0")

        monkeypatch.setattr(serve, "run_distributed_session", reject)
        code = serve.main(self._args())
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_abort_and_crash_codes_are_distinct_and_nonzero(self):
        assert serve.EXIT_PROTOCOL_ABORT != serve.EXIT_INFRA_CRASH
        assert serve.EXIT_PROTOCOL_ABORT not in (0, 1, 2)
        assert serve.EXIT_INFRA_CRASH not in (0, 1, 2)
