"""Fleet serving: placement, byte-identity, crash restart, drain, stealing.

The fleet layer's contract, pinned end to end:

* every session served through the fleet releases byte-identical to the
  seeded in-process :class:`repro.api.Session`;
* a front-end killed mid-session costs an *attributed* ``crashed``
  outcome (party = the dead worker), never a hang, and the dispatcher
  restarts the worker and keeps serving;
* drain finishes everything already admitted and admits nothing new;
* a hot front-end's queued sessions are stolen onto an idle one;
* every front-end keeps to one CPU of its own;
* each session has a listener of its own: a late dial is refused, and a
  trickled handshake holds up only the session whose listener it is on.
"""

import os
import socket
import sys
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError
from repro.net import roles, serve, transport
from repro.net.fleet import (
    FleetConfig,
    FleetDispatcher,
    SessionRequest,
    run_fleet,
    session_seed,
    session_values,
)
from repro.net.frontend import _cpu_share, _FrontEnd
from repro.net.transport import SocketTransport, pack_frame
from repro.utils.rng import SeededRNG

DELTA = 2**-10
QUERY = CountQuery(epsilon=1.0, delta=DELTA)


def _solo_frame(request, num_servers=2, group="p64-sim", nb=16):
    solo = Session(
        request.query,
        num_provers=num_servers,
        group=group,
        nb_override=nb,
        rng=SeededRNG(request.seed),
    )
    solo.submit(request.values)
    return encode_message(solo.release().release)


class TestFleetServing:
    def test_fleet_releases_byte_identical_across_frontends(self):
        """4 sessions over 2 front-ends x capacity 2: every release
        byte-identical to its solo seeded run, both front-ends used."""
        outcome = run_fleet(
            QUERY,
            [1, 0, 1, 1],
            sessions=4,
            config=FleetConfig(
                frontends=2,
                capacity=2,
                num_servers=2,
                group="p64-sim",
                nb_override=16,
                timeout=60.0,
            ),
            seed="fleet-bytes",
        )
        assert outcome["released"] == 4
        assert outcome["crashed"] == 0 and outcome["aborted"] == 0
        assert outcome["accepted"] and outcome["byte_identical"]
        assert outcome["frontends_used"] == ["fe-0", "fe-1"]
        assert all(
            row["byte_identical"] for row in outcome["session_rows"]
        ), outcome["session_rows"]

    @pytest.mark.parametrize("sessions", [1, 2, 4])
    def test_one_frontend_serves_concurrent_sessions_byte_identical(self, sessions):
        """N sessions placed at once on one front-end of capacity N run
        concurrently on its session threads, each on its own listener;
        every release == its solo in-process Session, byte for byte."""
        config = FleetConfig(
            frontends=1, capacity=sessions, num_servers=2, nb_override=16, timeout=30.0
        )
        requests = [
            SessionRequest(
                s,
                QUERY,
                session_values([1, 0, 1, 1, 0], s),
                seed=session_seed(f"one-frontend-{sessions}", s),
            )
            for s in range(sessions)
        ]
        with FleetDispatcher(config) as dispatcher:
            for request in requests:
                dispatcher.place(request, "fe-0")
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
        for request in requests:
            outcome = dispatcher.outcomes[request.request_id]
            assert outcome.status == "released", outcome
            assert outcome.release_frame == _solo_frame(request)

    def test_config_file_round_trip_and_unknown_keys(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text('{"frontends": 3, "capacity": 1, "num_servers": 3}')
        config = FleetConfig.from_file(str(path))
        assert (config.frontends, config.capacity, config.num_servers) == (3, 1, 3)
        path.write_text('{"frontends": 3, "workers": 9}')
        with pytest.raises(ParameterError, match="workers"):
            FleetConfig.from_file(str(path))

    def test_config_file_shards_key_is_unknown(self, tmp_path):
        """A fleet session is never sharded, so ``shards`` is no key."""
        path = tmp_path / "fleet.json"
        path.write_text('{"frontends": 1, "shards": 2}')
        with pytest.raises(ParameterError, match=r"unknown fleet config keys: \['shards'\]"):
            FleetConfig.from_file(str(path))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"frontends": "2"}', "frontends"),
            ('{"capacity": true}', "capacity"),
            ('{"num_servers": 1.5}', "num_servers"),
            ('{"max_restarts": null}', "max_restarts"),
            ('{"timeout": "30"}', "timeout"),
            ('{"health_interval": false}', "health_interval"),
            ('{"group": 64}', "group"),
            ('{"nb_override": "64"}', "nb_override"),
            ('{"chunk_size": true}', "chunk_size"),
        ],
    )
    def test_config_file_rejects_wrong_json_types(self, tmp_path, text, key):
        path = tmp_path / "fleet.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=key):
            FleetConfig.from_file(str(path))

    def test_config_file_accepts_every_json_type_it_declares(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            '{"timeout": 30, "health_interval": 0.5, "nb_override": null,'
            ' "chunk_size": 8, "group": "p32-sim"}'
        )
        config = FleetConfig.from_file(str(path))
        assert (config.timeout, config.health_interval) == (30, 0.5)
        assert (config.nb_override, config.chunk_size, config.group) == (None, 8, "p32-sim")

    def test_config_file_type_error_is_a_usage_exit(self, tmp_path, capsys):
        """A mistyped config file is bad usage (exit 2), not a crash."""
        from repro.cli import main

        path = tmp_path / "fleet.json"
        path.write_text('{"frontends": "2"}')
        assert main(["serve", "--fleet", "--fleet-config", str(path)]) == 2
        assert "frontends" in capsys.readouterr().err

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            FleetConfig(frontends=0)
        with pytest.raises(ParameterError):
            FleetConfig(capacity=0)
        with pytest.raises(ParameterError):
            FleetConfig(num_servers=0)


class TestCpuShares:
    def test_cpus_are_dealt_round_the_frontends(self):
        """Every front-end gets exactly one CPU — a lone one on two CPUs
        too — its own while there are enough, and beyond one-per-CPU the
        CPUs are reused round-robin."""
        assert _cpu_share([0, 1], 0) == [0]
        cpus = [0, 1, 2, 3, 4, 5, 6, 7]
        assert [_cpu_share(cpus, s) for s in range(2)] == [[0], [1]]
        cpus = [0, 1, 2, 3, 6, 7]
        assert [_cpu_share(cpus, s) for s in range(4)] == [[0], [1], [2], [3]]
        assert [_cpu_share([4, 5], s) for s in range(5)] == [[4], [5], [4], [5], [4]]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here"
    )
    def test_each_frontend_keeps_to_its_share(self):
        """Two front-ends that have each served a session run on the
        one CPU of this process's that their pool slots were dealt — on
        a host with two or more CPUs, never on each other's."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        cpus = sorted(os.sched_getaffinity(0))
        with FleetDispatcher(config) as dispatcher:
            for slot in range(2):
                dispatcher.place(
                    SessionRequest(slot, QUERY, [1, 0, 1], seed=f"fleet-cpus/s{slot}"),
                    f"fe-{slot}",
                )
            assert dispatcher.wait({0, 1}, timeout=60.0), dispatcher.outcomes
            held = [
                sorted(os.sched_getaffinity(dispatcher.workers[f"fe-{slot}"].process.pid))
                for slot in range(2)
            ]
        assert held == [_cpu_share(cpus, slot) for slot in range(2)]
        if len(cpus) >= 2:
            assert not set(held[0]) & set(held[1])
        assert sorted(os.sched_getaffinity(0)) == cpus  # the dispatcher floats


class TestFleetLifecycle:
    def _wait_for(self, predicate, deadline_s=30.0, what="condition"):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.02)
        raise AssertionError(f"timed out waiting for {what}")

    def test_killed_frontend_attributed_restarted_survivors_identical(self):
        """Kill fe-0 with a session in flight: the session becomes an
        attributed ``crashed`` outcome (not a hang), the dispatcher
        respawns fe-0 and serves a new request through it, and fe-1's
        concurrent session stays byte-identical."""
        config = FleetConfig(
            frontends=2,
            capacity=1,
            num_servers=2,
            nb_override=16,
            timeout=30.0,
            health_interval=0.05,
        )
        victim = SessionRequest(
            0, QUERY, [1, 0, 1], seed="fleet-kill/s0", reply_delay=0.5
        )
        survivor = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-kill/s1")
        retry = SessionRequest(2, QUERY, [1, 1, 0], seed="fleet-kill/s2")
        start = time.monotonic()
        with FleetDispatcher(config) as dispatcher:
            dispatcher.place(victim, "fe-0")
            dispatcher.place(survivor, "fe-1")
            # The victim's 0.5 s-per-RPC session is provably in flight
            # once fe-0's health stats report it.
            self._wait_for(
                lambda: dispatcher.workers["fe-0"].stats["in_flight"] >= 1,
                what="fe-0 to report the session in flight",
            )
            dispatcher.workers["fe-0"].process.kill()
            assert dispatcher.wait({0, 1}, timeout=60.0), dispatcher.outcomes
            crashed = dispatcher.outcomes[0]
            assert crashed.status == "crashed"
            assert crashed.party == "fe-0"
            assert crashed.frontend == "fe-0"
            # Restarted — and the respawned worker actually serves.
            self._wait_for(
                lambda: dispatcher.restarts.get("fe-0", 0) >= 1,
                what="fe-0 restart",
            )
            dispatcher.place(retry, "fe-0")
            assert dispatcher.wait({2}, timeout=60.0), dispatcher.outcomes
            assert dispatcher.outcomes[2].status == "released"
            # No hangs anywhere in the story.
            assert time.monotonic() - start < 90.0
            # Survivor and retry releases byte-identical to solo runs.
            for request in (survivor, retry):
                outcome = dispatcher.outcomes[request.request_id]
                assert outcome.status == "released"
                assert outcome.release_frame == _solo_frame(request)

    def test_drain_finishes_in_flight_and_admits_nothing_new(self):
        """Drain with one session running and one queued: both finish
        and release; a post-drain submit is refused."""
        config = FleetConfig(
            frontends=1,
            capacity=1,
            num_servers=2,
            nb_override=16,
            timeout=30.0,
            health_interval=0.05,
        )
        running = SessionRequest(
            0, QUERY, [1, 0, 1], seed="fleet-drain/s0", reply_delay=0.15
        )
        queued = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-drain/s1")
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(running)
            dispatcher.submit(queued)
            assert dispatcher.drain(timeout=60.0)
            assert dispatcher.outcomes[0].status == "released"
            assert dispatcher.outcomes[1].status == "released"
            with pytest.raises(ParameterError, match="draining"):
                dispatcher.submit(
                    SessionRequest(2, QUERY, [1, 1], seed="fleet-drain/s2")
                )
            for request in (running, queued):
                outcome = dispatcher.outcomes[request.request_id]
                assert outcome.release_frame == _solo_frame(request)

    def test_hot_frontend_sessions_stolen_onto_idle_one(self):
        """Pile 4 sessions onto fe-0 (capacity 1, slow RPCs) while fe-1
        idles: the dispatcher steals queued sessions across, some land
        on fe-1, and everything still releases byte-identically."""
        config = FleetConfig(
            frontends=2,
            capacity=1,
            num_servers=2,
            nb_override=16,
            timeout=60.0,
            health_interval=0.05,
        )
        requests = [
            SessionRequest(
                i,
                QUERY,
                session_values([1, 0, 1], i),
                seed=session_seed("fleet-steal", i),
                reply_delay=0.25,
            )
            for i in range(4)
        ]
        with FleetDispatcher(config) as dispatcher:
            for request in requests:
                dispatcher.place(request, "fe-0")
            assert dispatcher.wait(timeout=120.0), dispatcher.outcomes
            assert dispatcher.stolen >= 1
            frontends = {o.frontend for o in dispatcher.outcomes.values()}
            assert "fe-1" in frontends, dispatcher.outcomes
            for request in requests:
                outcome = dispatcher.outcomes[request.request_id]
                assert outcome.status == "released"
                assert outcome.release_frame == _solo_frame(request)

    def test_stop_with_sessions_in_flight_is_prompt(self):
        """``stop`` (no grace) tells the peers of every session still in
        flight to stop waiting, so the worker's session threads end and
        it exits at once instead of serving its slow sessions out."""
        config = FleetConfig(
            frontends=1,
            capacity=2,
            num_servers=2,
            nb_override=16,
            timeout=30.0,
            health_interval=0.05,
        )
        dispatcher = FleetDispatcher(config).start()
        try:
            for i in range(2):
                request = SessionRequest(
                    i, QUERY, [1, 0, 1], seed=f"stop/s{i}", reply_delay=0.5
                )
                dispatcher.place(request, "fe-0")
            self._wait_for(
                lambda: dispatcher.workers["fe-0"].stats["in_flight"] == 2,
                what="both sessions in flight",
            )
        finally:
            start = time.monotonic()
            dispatcher.stop()
        assert time.monotonic() - start < 3.0
        assert dispatcher.workers["fe-0"].process.exitcode == 0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/status"
    )
    def test_worker_memory_is_flat_in_sessions_served(self):
        """A front-end forgets a session once it is served: 40 sessions
        through one worker leave its resident set after the 40th within
        2 MB of where it stood after the 10th.  While the worker
        kept every ``EngineResult`` this grew ≈ 0.5 MB per session at
        nb = 128 (≈ +15 MB over the same 30 sessions)."""
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=128, timeout=30.0
        )

        def worker_rss_mb(dispatcher) -> float:
            pid = dispatcher.workers["fe-0"].process.pid
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024
            raise AssertionError("no VmRSS line")

        rss_after = {}
        with FleetDispatcher(config) as dispatcher:
            for i in range(40):
                dispatcher.submit(
                    SessionRequest(
                        i,
                        QUERY,
                        session_values([1, 0, 1, 1, 0, 1, 0, 0], i),
                        seed=session_seed("fleet-rss", i),
                    )
                )
                assert dispatcher.wait({i}, timeout=60.0), dispatcher.outcomes
                assert dispatcher.outcomes[i].status == "released"
                rss_after[i + 1] = worker_rss_mb(dispatcher)
        assert rss_after[40] - rss_after[10] < 2.0, rss_after


class TestSessionListener:
    """A fleet session is served on a listener of its own, bound to its
    session id: the solo socket session's listen → accept → close."""

    def test_a_dial_after_the_accept_is_refused(self):
        """Once a session's peers are in its listener is closed: a late
        connection is refused, never queued behind the session."""
        with serve.session_peers(
            "socket",
            roles.peer_roles(2, 0),
            QUERY,
            [1, 0, 1],
            "late-dial",
            "127.0.0.1",
            0,
            10.0,
            session=3,
            threads=True,
        ) as analyst:
            assert sorted(analyst._sockets) == ["clients", "prover-0", "prover-1"]
            with pytest.raises(ConnectionRefusedError):
                SocketTransport.connect(
                    "mallory", "analyst", port=analyst.port, session=3, timeout=5.0
                )

    @staticmethod
    def _trickle(monkeypatch, session: int, pause: float) -> None:
        """Before session ``session``'s peers dial its listener, a
        connection reaches it first and sends a handshake for that
        session one byte per ``pause`` seconds (inherited by the forked
        front-end)."""
        real_listen = SocketTransport.listen.__func__

        def trickle(sock):
            try:
                for byte in pack_frame(b"mallory", session):
                    time.sleep(pause)
                    sock.sendall(bytes([byte]))
                time.sleep(30.0)
            except OSError:
                pass  # the listener gave up on this connection
            finally:
                sock.close()

        def listen(cls, *args, **kwargs):
            listener = real_listen(cls, *args, **kwargs)
            if kwargs.get("session") == session:
                sock = socket.create_connection(("127.0.0.1", listener.port))
                threading.Thread(target=trickle, args=(sock,), daemon=True).start()
            return listener

        monkeypatch.setattr(transport.SocketTransport, "listen", classmethod(listen))

    def _serve_two(self, timeout: float):
        config = FleetConfig(
            frontends=1, capacity=2, num_servers=2, nb_override=16, timeout=timeout
        )
        requests = [
            SessionRequest(s, QUERY, [1, 0, 1], seed=f"trickle/s{s}") for s in range(2)
        ]
        with FleetDispatcher(config) as dispatcher:
            for request in requests:  # placed in order: session ids 0 and 1
                dispatcher.place(request, "fe-0")
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
        return requests, [dispatcher.outcomes[s] for s in range(2)]

    def test_trickled_handshake_delays_only_its_session(self, monkeypatch):
        """A 15-byte handshake trickled over ≈ 1.5 s holds session 1's
        serial accept until it is read and dropped (an unexpected name);
        session 1 then completes, and session 0 never waited for it."""
        self._trickle(monkeypatch, session=1, pause=0.1)
        requests, (other, trickled) = self._serve_two(timeout=20.0)
        assert other.status == trickled.status == "released", (other, trickled)
        assert other.elapsed_s < 1.0 <= trickled.elapsed_s
        for request, outcome in zip(requests, (other, trickled)):
            assert outcome.release_frame == _solo_frame(request)

    def test_trickle_past_the_deadline_aborts_naming_it(self, monkeypatch):
        """A handshake still trickling at the accept deadline aborts its
        session by that deadline, the abort naming the unfinished
        handshake; the other session releases byte-identical."""
        self._trickle(monkeypatch, session=1, pause=1.0)
        requests, (other, trickled) = self._serve_two(timeout=2.0)
        assert trickled.status == "aborted", trickled
        assert "timed out accepting peers" in trickled.reason
        assert "unfinished at the deadline" in trickled.reason
        assert other.status == "released", other
        assert other.release_frame == _solo_frame(requests[0])


class TestFrontEndGroups:
    @pytest.mark.parametrize("group", ["p64-sim", "p256-sim", "ristretto255", "modp-2048"])
    def test_session_on_each_group_is_byte_identical(self, group):
        """A front-end's session thread serves the group of its config:
        peers learn it from the analyst's setup, and the release is the
        solo seeded Session's on that group, byte for byte."""
        frontend = _FrontEnd(
            "fe-test",
            None,
            FleetConfig(frontends=1, num_servers=2, nb_override=16, group=group),
        )
        request = SessionRequest(0, QUERY, [1, 0, 1], seed=f"groups/{group}")
        try:
            event = frontend._run_session(request, 3)
        finally:
            frontend._executor.shutdown(wait=True)
        assert event["event"] == "released", event
        assert event["release"] == _solo_frame(request, group=group)


class TestFrontEndForgets:
    """A front-end serves an unbounded stream of sessions, and an
    ``EngineResult`` keeps every broadcast and coin message of its run:
    once a session thread returns — released or aborted — the front-end
    holds nothing keyed by that session."""

    SID = 5

    def _serve(self, run: str):
        frontend = _FrontEnd(
            "fe-test", None, FleetConfig(frontends=1, num_servers=2, nb_override=16)
        )
        request = SessionRequest(0, QUERY, [1, 0, 1], seed=run)
        try:
            return frontend, request, frontend._run_session(request, self.SID)
        finally:
            frontend._executor.shutdown(wait=True)

    @staticmethod
    def _per_session_entries(frontend, session):
        return [
            name
            for name, value in vars(frontend).items()
            if isinstance(value, dict) and session in value
        ]

    def test_nothing_is_kept_once_a_session_is_served(self):
        frontend, request, event = self._serve("forgets-ok")
        assert event["event"] == "released", event
        assert event["release"] == _solo_frame(request)
        assert self._per_session_entries(frontend, self.SID) == []

    def test_nothing_is_kept_once_a_session_has_aborted(self, monkeypatch):
        """prover-1 handshakes and hangs up: the session aborts naming
        it, and the abort path forgets the session too."""
        real_run_role = roles.run_role

        def run_role(role, name, opener, **kwargs):
            if name != "prover-1":
                return real_run_role(role, name, opener, **kwargs)
            opener().close()

        monkeypatch.setattr(roles, "run_role", run_role)
        frontend, _, event = self._serve("forgets-abort")
        assert event["event"] == "aborted", event
        assert event["party"] == "prover-1"
        assert self._per_session_entries(frontend, self.SID) == []
