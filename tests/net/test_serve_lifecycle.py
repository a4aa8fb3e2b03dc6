"""Serving-layer lifecycle regressions: startup leaks and teardown stalls.

Bugs fixed in the serve layer, pinned here:

* a failed ``accept`` in the socket launcher used to leak every started
  child process *and* the listening socket — the cleanup closure was
  only returned on success;
* peer shutdown used to be serial with a full protocol-timeout recv per
  peer, so one dead peer stalled teardown by timeout × remaining peers,
  and the bare ``except ReproError: pass`` discarded which peer was
  dead;
* forked pipe peers used to inherit the analyst's pipe ends, so when the
  analyst failed before its first frame its close reached no peer as
  EOF and teardown waited out every peer's recv (≈ 90 s);
* ``repro serve`` used to exit the same way for a protocol abort and
  dead infrastructure, so a supervisor (the fleet dispatcher, CI, an
  init system) could not tell "a party cheated/went silent" from "the
  serving substrate broke" — now they are distinct exit codes with the
  attributed party on stderr.
"""

import multiprocessing
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.cli import _serve_parser
from repro.core.messages import AuditRecord
from repro.errors import ParameterError, ProtocolAbort
from repro.net import fleet, roles, serve, transport
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

        # The launcher imports what it runs when it is called, so the
        # patches go on the defining modules.
        monkeypatch.setattr(roles, "run_role", never_connects)
        spawned = []
        real_get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda kind: _RecordingContext(real_get_context(kind), spawned),
        )

        listeners = []
        real_listen = transport.SocketTransport.listen

        def recording_listen(*args, **kwargs):
            listeners.append(real_listen(*args, **kwargs))
            return listeners[-1]

        monkeypatch.setattr(transport.SocketTransport, "listen", recording_listen)

        query = CountQuery(epsilon=1.0, delta=DELTA)
        start = time.monotonic()
        with pytest.raises(ProtocolAbort):
            with serve.session_peers(
                "socket",
                roles.peer_roles(2, 0),
                query,
                [1, 0],
                "leak",
                "127.0.0.1",
                0,
                1.0,
            ):
                pass
        assert time.monotonic() - start < 30.0
        assert len(spawned) == 3  # 2 servers + 1 client runner
        (listener,) = listeners
        assert listener._listener.fileno() == -1, "failed accept leaked the listener"
        for process in spawned:
            process.join(timeout=10.0)
        assert all(not process.is_alive() for process in spawned), (
            "failed accept leaked live children"
        )

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

    @pytest.mark.parametrize("shards", [0, 2])
    def test_analyst_failure_on_pipes_reaps_peers_promptly(self, shards):
        """An unknown group fails the analyst after the peers forked and
        before any frame: each peer must see the closed pipe at once."""
        start = time.monotonic()
        with pytest.raises(ParameterError):
            serve.run_distributed_session(
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0],
                transport="multiprocess",
                shards=shards,
                group="nope",
                nb_override=4,
                seed="lifecycle",
            )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"teardown stalled {elapsed:.1f}s"


class TestSessionPeersTeardown:
    """:func:`serve.session_peers` — a solo session's and each fleet
    session's peers alike — tells every peer to stop when the analyst
    fails inside the block, so the exit waits on no peer's recv timeout."""

    @pytest.mark.parametrize(
        "transport_name, threads",
        [("memory", False), ("multiprocess", False), ("socket", False), ("socket", True)],
        ids=["memory", "multiprocess", "socket", "socket-threads"],
    )
    def test_analyst_failure_stops_every_peer_promptly(self, transport_name, threads):
        peer_roles = roles.peer_roles(2, 0)
        names = {name for _, name in peer_roles}
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="analyst failed"):
            with serve.session_peers(
                transport_name,
                peer_roles,
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0, 1],
                "teardown",
                "127.0.0.1",
                0,
                60.0,
                session=0 if transport_name != "socket" else 5,
                threads=threads,
            ):
                raise RuntimeError("analyst failed")
        elapsed = time.monotonic() - start
        # Without the abort a peer waits out its 60 s recv and the
        # cleanup's 30 s join per peer.
        assert elapsed < 20.0, f"teardown stalled {elapsed:.1f}s"
        assert not [t for t in threading.enumerate() if t.name in names]
        assert not [
            p for p in multiprocessing.active_children() if p.name in names
        ]


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

        monkeypatch.setattr(fleet, "run_fleet", abort)
        code = serve.main(self._args("--fleet"))
        assert code == serve.EXIT_PROTOCOL_ABORT
        assert "unattributed" in capsys.readouterr().err

    def test_infrastructure_crash_exits_4(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise OSError("address already in use")

        monkeypatch.setattr(fleet, "run_fleet", crash)
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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--listen", "0"],
            ["--metrics-port", "0"],
            ["--fleet-config", "fleet.json"],
            ["--fleet", "--shards", "2"],
            ["--fleet", "--serve-seconds", "5"],
            ["--fleet", "--transport", "multiprocess"],
            ["--fleet", "--port", "5"],
            ["--fleet", "--port", "0"],
            ["--frontends", "1"],
            ["--capacity", "2"],
            ["--sessions", "1"],
        ],
        ids=[
            "listen",
            "metrics-port",
            "fleet-config",
            "fleet-shards",
            "serve-seconds",
            "fleet-transport",
            "fleet-port",
            "fleet-port-zero",
            "frontends",
            "capacity",
            "sessions",
        ],
    )
    def test_flag_the_mode_would_ignore_exits_2(self, monkeypatch, capsys, flags):
        """``--listen``, ``--metrics-port``, ``--fleet-config``,
        ``--frontends``, ``--capacity`` and ``--sessions`` mean something
        only under ``--fleet``, ``--serve-seconds`` only with
        ``--listen``, ``--shards``, ``--transport`` and ``--port`` only
        without ``--fleet``: each is refused before anything is served or
        bound, instead of running a session that ignores it and exiting
        0 — also when its value is the default (``--capacity 2``)."""

        def served(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(serve, "run_distributed_session", served)
        monkeypatch.setattr(fleet, "run_fleet", served)
        code = serve.main(self._args(*flags, "--transport", "memory"))
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and flags[-2] in err

    def test_abort_and_crash_codes_are_distinct_and_nonzero(self):
        assert serve.EXIT_PROTOCOL_ABORT != serve.EXIT_INFRA_CRASH
        assert serve.EXIT_PROTOCOL_ABORT not in (0, 1, 2)
        assert serve.EXIT_INFRA_CRASH not in (0, 1, 2)

    @pytest.mark.parametrize(
        "flags, defaults",
        [
            (["--fleet"], {"frontends": 2, "capacity": 2, "sessions": 2}),
            ([], {"transport": "multiprocess", "port": 0}),
        ],
        ids=["fleet", "one-session"],
    )
    def test_each_mode_fills_in_its_own_defaults(self, flags, defaults):
        """The five mode flags parse to ``None`` so that an explicit one
        can be told from its default; once the check has passed, the
        mode's own flags get their defaults and the other mode's stay
        unset."""
        args = self._args(*flags)
        serve._check_fleet_flags(args)
        for dest in ("transport", "port", "frontends", "capacity", "sessions"):
            assert getattr(args, dest) == defaults.get(dest), dest
