"""Fleet serving: admission queue, byte-identity, crash restart, drain.

The fleet layer's contract, pinned end to end:

* every session served through the fleet releases byte-identical to the
  seeded in-process :class:`repro.api.Session`;
* sessions wait in the dispatcher's one FIFO queue and are placed only
  into a free slot: no front-end ever holds more than ``capacity``;
* a front-end killed mid-session costs an *attributed* ``crashed``
  outcome (party = the dead worker) for exactly the sessions placed on
  it, never a hang; queued sessions go to a live or respawned
  front-end, or crash with a reason once none is left;
* drain serves everything already admitted and admits nothing new, and
  a stopped fleet admits nothing either;
* every front-end keeps to one CPU of its own;
* a worker's main thread starts one daemon thread per placement, which
  reports its own outcome, and stops as told without waiting for a
  session in flight;
* each session has a listener of its own: a late dial is refused, and a
  trickled handshake holds up only the session whose listener it is on.
"""

import multiprocessing
import os
import socket
import sys
import threading
import time
import types

import pytest

from test_fault_outcomes import CHEATERS

from repro.api.engine import fork_rng
from repro.api.queries import CountQuery
from repro.api.session import Session, build_engine
from repro.core.client import Client, InconsistentShareClient
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.prover import Prover
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort
from repro.cli import main
from repro.net import fleet, roles, serve, transport
from repro.net.fleet import (
    FleetConfig,
    FleetDispatcher,
    SessionOutcome,
    SessionRequest,
    run_fleet,
    session_seed,
    session_values,
)
from repro.net.frontend import _cpu_share, _FrontEnd
from repro.net.metrics import ServingMetrics
from repro.net.nodes import ServerNode
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
                dispatcher.submit(request)
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
        for request in requests:
            outcome = dispatcher.outcomes[request.request_id]
            assert (outcome.status, outcome.frontend) == ("released", "fe-0"), outcome
            assert outcome.release_frame == _solo_frame(request)

    def test_fleet_flags_fill_in_the_config(self, monkeypatch):
        """``repro fleet``'s flags are the one way to shape the fleet:
        each lands in its ``FleetConfig`` field, with the type it has."""
        served = {}

        def capture(query, values, *, sessions, config, seed, metrics):
            served.update(sessions=sessions, config=config, seed=seed)
            raise ProtocolAbort("captured")  # exit 3: nothing is served

        monkeypatch.setattr(fleet, "run_fleet", capture)
        argv = ["fleet", "--frontends", "3", "--capacity", "1", "--servers", "3"]
        argv += ["--timeout", "30", "--chunk", "8", "--group", "p32-sim", "--nb", "16"]
        assert main([*argv, "--sessions", "5", "--seed", "none"]) == 3
        assert (served["sessions"], served["seed"]) == (5, None)
        assert served["config"] == FleetConfig(
            frontends=3,
            capacity=1,
            num_servers=3,
            group="p32-sim",
            nb_override=16,
            chunk_size=8,
            timeout=30.0,
        )
        assert isinstance(served["config"].timeout, float)

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(flags, named, id="-".join(flags).replace("--", ""))
            for flags, named in [
                (["--workers", "9"], "--workers"),
                (["--health-interval", "0.5"], "--health-interval"),
                (["--max-restarts", "0"], "--max-restarts"),
                (["--frontends", "2.5"], "--frontends"),
                (["--capacity", "true"], "--capacity"),
                (["--servers", "1.5"], "--servers"),
                (["--timeout", "thirty"], "--timeout"),
                (["--nb", "x"], "--nb"),
                (["--chunk", "true"], "--chunk"),
                (["--frontends", "0"], "frontends must be >= 1"),
                (["--capacity", "0"], "capacity must be >= 1"),
                (["--servers", "0"], "num_servers must be >= 1"),
                (["--sessions", "0"], "sessions must be >= 1"),
                (["--group", "64"], "unknown group '64'"),
            ]
        ],
    )
    def test_a_bad_fleet_flag_exits_2_before_a_worker_starts(
        self, monkeypatch, capsys, flags, named
    ):
        """A flag ``repro fleet`` does not take, a value of the wrong
        type, or one the fleet refuses is bad usage (exit 2) naming it,
        not a crash, and no front-end is started."""

        def spawn(*args, **kwargs):
            raise AssertionError("a front-end started")

        monkeypatch.setattr(FleetDispatcher, "_spawn", spawn)
        try:
            code = main(["fleet", *flags])
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err

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
                dispatcher.submit(
                    SessionRequest(slot, QUERY, [1, 0, 1], seed=f"fleet-cpus/s{slot}")
                )
            assert dispatcher.wait({0, 1}, timeout=60.0), dispatcher.outcomes
            assert [dispatcher.outcomes[slot].frontend for slot in range(2)] == [
                "fe-0",
                "fe-1",
            ]
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

    def test_killed_frontend_attributed_restarted_survivors_identical(
        self, session_started, slow_replies
    ):
        """Kill fe-0 with a session in flight: the session becomes an
        attributed ``crashed`` outcome (not a hang), the dispatcher
        respawns fe-0 and serves a new request through it, and fe-1's
        concurrent session stays byte-identical."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        victim = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-kill/s0")
        survivor = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-kill/s1")
        retry = SessionRequest(2, QUERY, [1, 1, 0], seed="fleet-kill/s2")
        slow_replies(0.5, victim.seed)
        started = session_started(victim.seed)
        start = time.monotonic()
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(victim)
            dispatcher.submit(survivor)
            # The victim's 0.5 s-per-RPC session is provably in flight
            # once its clients peer has started.
            assert started[victim.seed].wait(30.0), "victim session never started"
            dispatcher.workers["fe-0"].process.kill()
            assert dispatcher.wait({0, 1}, timeout=60.0), dispatcher.outcomes
            crashed = dispatcher.outcomes[0]
            assert crashed.status == "crashed"
            assert crashed.party == "fe-0"
            assert crashed.frontend == "fe-0"
            assert dispatcher.outcomes[1].frontend == "fe-1"
            # Restarted — and the respawned worker actually serves.
            self._wait_for(
                lambda: dispatcher.restarts.get("fe-0", 0) >= 1,
                what="fe-0 restart",
            )
            dispatcher.submit(retry)
            assert dispatcher.wait({2}, timeout=60.0), dispatcher.outcomes
            assert (dispatcher.outcomes[2].status, dispatcher.outcomes[2].frontend) == (
                "released",
                "fe-0",
            )
            # No hangs anywhere in the story.
            assert time.monotonic() - start < 90.0
            # Survivor and retry releases byte-identical to solo runs.
            for request in (survivor, retry):
                outcome = dispatcher.outcomes[request.request_id]
                assert outcome.status == "released"
                assert outcome.release_frame == _solo_frame(request)

    def test_crash_costs_only_the_sessions_placed_on_it(
        self, session_started, slow_replies
    ):
        """Two front-ends of one slot each, four sessions, the first two
        slow.  Killing fe-0 once both slow sessions run costs exactly
        the one placed on it: the two still queued wait for a free slot
        and release, like fe-1's, byte-identical to their solo runs."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        requests = [
            SessionRequest(
                i,
                QUERY,
                session_values([1, 0, 1], i),
                seed=session_seed("fleet-queue-kill", i),
            )
            for i in range(4)
        ]
        slow_replies(0.25, requests[0].seed, requests[1].seed)
        started = session_started(requests[0].seed, requests[1].seed)
        with FleetDispatcher(config) as dispatcher:
            for request in requests:
                dispatcher.submit(request)
            for request in requests[:2]:
                assert started[request.seed].wait(30.0), f"{request.seed} never started"
            dispatcher.workers["fe-0"].process.kill()
            assert dispatcher.wait(timeout=90.0), dispatcher.outcomes
        statuses = {i: dispatcher.outcomes[i].status for i in range(4)}
        assert statuses == {0: "crashed", 1: "released", 2: "released", 3: "released"}
        assert dispatcher.outcomes[0].party == "fe-0"
        for request in requests[1:]:
            assert dispatcher.outcomes[request.request_id].release_frame == _solo_frame(
                request
            )

    def test_queued_sessions_crash_once_no_frontend_is_left(
        self, monkeypatch, session_started, slow_replies
    ):
        """One front-end with no restarts, one session running and one
        queued: killing it crashes the running one (naming fe-0) and the
        queued one (never placed, with a reason), and ``wait`` returns."""
        monkeypatch.setattr(fleet, "_MAX_RESTARTS", 0)
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        running = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-last/s0")
        queued = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-last/s1")
        slow_replies(0.25, running.seed)
        started = session_started(running.seed)
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(running)
            dispatcher.submit(queued)
            assert started[running.seed].wait(30.0), "running session never started"
            dispatcher.workers["fe-0"].process.kill()
            assert dispatcher.wait(timeout=30.0), dispatcher.outcomes
            assert dispatcher.drain(timeout=10.0)
        first, second = dispatcher.outcomes[0], dispatcher.outcomes[1]
        assert (first.status, first.frontend, first.party) == ("crashed", "fe-0", "fe-0")
        assert (second.status, second.frontend) == ("crashed", None)
        assert "no live front-end" in second.reason
        assert dispatcher.restarts == {}

    def test_a_request_id_is_admitted_once(self):
        """A second admission of an id already admitted — queued, placed
        or finished — is refused, so no id can have two outcomes."""
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        first = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-dup/s0")
        again = SessionRequest(0, QUERY, [0, 1, 1], seed="fleet-dup/again")
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(first)
            with pytest.raises(ParameterError, match="request id 0 already admitted"):
                dispatcher.submit(again)
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
            with pytest.raises(ParameterError, match="already admitted"):
                dispatcher.submit(again)
        assert list(dispatcher.outcomes) == [0]
        assert dispatcher.outcomes[0].release_frame == _solo_frame(first)

    def test_a_full_frontend_holds_the_next_session_in_the_queue(
        self, session_started, slow_replies
    ):
        """A session submitted while a capacity-1 front-end's one slot is
        in flight is admitted but not placed: the front-end still holds
        only the first, and the second runs once that outcome frees the
        slot, on the same front-end, byte-identical to its solo run."""
        metrics = ServingMetrics()
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        first = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-full/s0")
        second = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-full/s1")
        slow_replies(0.2, first.seed)
        started = session_started(first.seed)
        with FleetDispatcher(config, metrics=metrics) as dispatcher:
            dispatcher.submit(first)
            assert started[first.seed].wait(30.0), "first session never started"
            dispatcher.submit(second)
            assert list(dispatcher.workers["fe-0"].placed) == [0]
            assert metrics.queued.value() == 1
            assert metrics.frontend_in_flight.value(frontend="fe-0") == 1
            assert 1 not in dispatcher.outcomes
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
        assert list(dispatcher.outcomes) == [0, 1]
        for request in (first, second):
            outcome = dispatcher.outcomes[request.request_id]
            assert (outcome.status, outcome.frontend) == ("released", "fe-0"), outcome
            assert outcome.release_frame == _solo_frame(request)

    def test_wait_names_requests_or_every_admitted_one(self, slow_replies):
        """``wait()`` covers every admitted request (none admitted: done
        at once); ``wait(ids)`` only the named ones, and an id never
        admitted is never done."""
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        slow = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-wait/s0")
        slow_replies(0.5, slow.seed)
        with FleetDispatcher(config) as dispatcher:
            assert dispatcher.wait(timeout=0.0)
            dispatcher.submit(slow)
            assert not dispatcher.wait(timeout=0.05)
            assert not dispatcher.wait({0}, timeout=0.05)
            assert dispatcher.wait({0}, timeout=60.0), dispatcher.outcomes
            assert dispatcher.wait(timeout=0.0)
            assert not dispatcher.wait({0, 7}, timeout=0.05)
        assert dispatcher.outcomes[0].status == "released"

    def test_failed_session_is_crashed_on_its_frontend_which_serves_on(
        self, monkeypatch
    ):
        """A session that fails inside the worker (not a protocol abort)
        is a ``crashed`` outcome naming its front-end and the error; the
        worker lives on and serves the next session byte-identical."""
        real_session_peers = serve.session_peers

        def session_peers(*args, **kwargs):
            if args[4] == "fleet-fail/s0":
                raise RuntimeError("listener exploded")
            return real_session_peers(*args, **kwargs)

        # Patched before the fork: the worker inherits it.
        monkeypatch.setattr(serve, "session_peers", session_peers)
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        failing = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-fail/s0")
        after = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-fail/s1")
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(failing)
            dispatcher.submit(after)
            assert dispatcher.wait(timeout=60.0), dispatcher.outcomes
            pid = dispatcher.workers["fe-0"].process.pid
            assert dispatcher.drain(timeout=30.0)
        failed = dispatcher.outcomes[0]
        assert (failed.status, failed.frontend, failed.party) == (
            "crashed",
            "fe-0",
            "fe-0",
        )
        assert failed.reason == "RuntimeError: listener exploded"
        assert dispatcher.outcomes[1].release_frame == _solo_frame(after)
        assert dispatcher.restarts == {}
        assert dispatcher.workers["fe-0"].process.pid == pid
        assert dispatcher.workers["fe-0"].process.exitcode == 0

    def test_more_sessions_than_slots_wait_in_submission_order(self, monkeypatch):
        """Six sessions on two front-ends of one slot each: every placement
        finds its front-end below capacity, the queue places them in
        submission order — the later four into slots that outcomes freed
        — so each front-end releases in that order, and every release is
        byte-identical to its solo run."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        requests = [
            SessionRequest(
                i,
                QUERY,
                session_values([1, 0, 1, 1], i),
                seed=session_seed("fleet-queue", i),
            )
            for i in range(6)
        ]
        placements = []
        real_place = FleetDispatcher._place

        def place(self, worker, request):
            real_place(self, worker, request)
            placements.append(
                (request.request_id, worker.load, threading.current_thread().name)
            )

        monkeypatch.setattr(FleetDispatcher, "_place", place)
        with FleetDispatcher(config) as dispatcher:
            for request in requests:
                dispatcher.submit(request)
            assert dispatcher.wait(timeout=90.0), dispatcher.outcomes
        assert [request_id for request_id, _, _ in placements] == list(range(6))
        assert max(load for _, load, _ in placements) == 1
        refills = [who for _, _, who in placements if who == "fleet-dispatcher"]
        assert len(refills) == 4, placements
        for name in ("fe-0", "fe-1"):
            served = [i for i, o in dispatcher.outcomes.items() if o.frontend == name]
            assert served == sorted(served) and served, dispatcher.outcomes
        for request in requests:
            outcome = dispatcher.outcomes[request.request_id]
            assert outcome.status == "released", outcome
            assert outcome.release_frame == _solo_frame(request)

    def test_concurrent_submitters_never_overfill_a_frontend(self, monkeypatch):
        """Four threads submit three sessions each, with the interpreter
        switching threads every 10 µs, while the monitor refills slots:
        every placement finds its front-end below capacity and each
        request gets exactly one outcome, a release."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        loads = []
        real_place = FleetDispatcher._place

        def place(self, worker, request):
            real_place(self, worker, request)
            loads.append(worker.load)

        monkeypatch.setattr(FleetDispatcher, "_place", place)
        with FleetDispatcher(config) as dispatcher:

            def submitter(first):
                for i in range(first, first + 3):
                    dispatcher.submit(
                        SessionRequest(i, QUERY, [1, 0, 1], seed=f"fleet-race/s{i}")
                    )

            threads = [
                threading.Thread(target=submitter, args=(3 * t,)) for t in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert dispatcher.wait(timeout=90.0), dispatcher.outcomes
        assert sorted(dispatcher.outcomes) == list(range(12))
        assert {o.status for o in dispatcher.outcomes.values()} == {"released"}
        assert len(loads) == 12 and max(loads) == 1, loads

    def test_drain_finishes_in_flight_and_admits_nothing_new(self, slow_replies):
        """Drain with one session running and one queued: both finish
        and release; a post-drain submit is refused, and the in-flight
        and queued gauges both read 0."""
        metrics = ServingMetrics()
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        running = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-drain/s0")
        queued = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-drain/s1")
        slow_replies(0.15, running.seed)
        with FleetDispatcher(config, metrics=metrics) as dispatcher:
            dispatcher.submit(running)
            dispatcher.submit(queued)
            assert metrics.queued.value() == 1
            assert metrics.frontend_in_flight.value(frontend="fe-0") == 1
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
        assert metrics.in_flight.value() == 0
        assert metrics.queued.value() == 0
        assert metrics.frontend_in_flight.value(frontend="fe-0") == 0
        assert dispatcher.restarts == {}

    def test_drain_stops_an_idle_frontend_while_another_serves(
        self, session_started, slow_replies
    ):
        """Drain with one of two front-ends busy: the idle one is told to
        stop at once and exits cleanly, unreplaced, while the busy one
        serves its session out and then exits too."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        slow = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-drain-idle/s0")
        slow_replies(0.5, slow.seed)
        started = session_started(slow.seed)
        with FleetDispatcher(config) as dispatcher:
            dispatcher.submit(slow)
            assert started[slow.seed].wait(30.0), "slow session never started"
            idle = dispatcher.workers["fe-1"]
            assert not dispatcher.drain(timeout=0.0)
            idle.process.join(10.0)
            assert idle.process.exitcode == 0
            assert 0 not in dispatcher.outcomes
            assert dispatcher.drain(timeout=60.0)
            assert dispatcher.workers["fe-1"] is idle
        assert dispatcher.outcomes[0].frontend == "fe-0"
        assert dispatcher.outcomes[0].release_frame == _solo_frame(slow)
        assert dispatcher.workers["fe-0"].process.exitcode == 0
        assert dispatcher.restarts == {}

    def test_stop_with_sessions_in_flight_is_prompt(self, session_started, slow_replies):
        """``stop`` (no grace) does not wait for the sessions still in
        flight: the worker's main thread returns, and the process exits
        at once, cleanly, ending their daemon threads instead of serving
        its slow sessions out."""
        config = FleetConfig(
            frontends=1, capacity=2, num_servers=2, nb_override=16, timeout=30.0
        )
        seeds = [f"stop/s{i}" for i in range(2)]
        slow_replies(0.5, *seeds)
        started = session_started(*seeds)
        dispatcher = FleetDispatcher(config).start()
        try:
            for i, seed in enumerate(seeds):
                dispatcher.submit(SessionRequest(i, QUERY, [1, 0, 1], seed=seed))
            for seed in seeds:
                assert started[seed].wait(30.0), f"{seed} never started"
        finally:
            start = time.monotonic()
            dispatcher.stop()
        assert time.monotonic() - start < 3.0
        assert dispatcher.workers["fe-0"].process.exitcode == 0

    def test_stop_ends_every_placed_and_queued_session(self, session_started, slow_replies):
        """``stop`` with one slow session placed and one queued behind it
        gives each a ``crashed`` outcome, "dispatcher stopped", naming the
        front-end it was placed on or none: ``wait`` returns at once and
        the /metrics ledger balances."""
        metrics = ServingMetrics()
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        placed = SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-stop/s0")
        queued = SessionRequest(1, QUERY, [0, 1, 1], seed="fleet-stop/s1")
        slow_replies(0.5, placed.seed)
        started = session_started(placed.seed)
        dispatcher = FleetDispatcher(config, metrics=metrics).start()
        try:
            dispatcher.submit(placed)
            dispatcher.submit(queued)
            assert started[placed.seed].wait(30.0), "placed session never started"
        finally:
            dispatcher.stop()
        start = time.monotonic()
        assert dispatcher.wait(timeout=2.0), dispatcher.outcomes
        assert time.monotonic() - start < 0.5
        ended = {
            i: (o.status, o.frontend, o.reason) for i, o in dispatcher.outcomes.items()
        }
        assert ended == {
            0: ("crashed", "fe-0", "dispatcher stopped"),
            1: ("crashed", None, "dispatcher stopped"),
        }
        assert metrics.in_flight.value() == 0
        assert metrics.queued.value() == 0
        assert metrics.frontend_in_flight.value(frontend="fe-0") == 0

    def test_a_stopped_fleet_admits_nothing(self):
        """``submit`` after ``stop`` is refused, as during a drain: no
        session is admitted that no front-end is left to serve, so
        ``wait`` has nothing to wait for."""
        config = FleetConfig(
            frontends=1, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        dispatcher = FleetDispatcher(config).start()
        dispatcher.stop()
        with pytest.raises(ParameterError, match="stopped"):
            dispatcher.submit(SessionRequest(0, QUERY, [1, 0, 1], seed="fleet-after/s0"))
        start = time.monotonic()
        assert dispatcher.wait(timeout=2.0)
        assert time.monotonic() - start < 0.5
        assert dispatcher.outcomes == {}

    def test_drain_after_stop_returns_at_once(self):
        """Every worker ``stop`` joined is dead, so a later ``drain`` has
        no front-end left to wait for and returns True at once."""
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        dispatcher = FleetDispatcher(config).start()
        dispatcher.stop()
        start = time.monotonic()
        assert dispatcher.drain(timeout=2.0)
        assert time.monotonic() - start < 0.5
        assert all(worker.dead for worker in dispatcher.workers.values())

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
                dispatcher.submit(request)
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
        outcome, stages = frontend._run_session(request, 3)
        assert outcome.status == "released", outcome
        assert outcome.release_frame == _solo_frame(request, group=group)
        assert "phase:morra" in stages


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
        return frontend, request, frontend._run_session(request, self.SID)

    @staticmethod
    def _per_session_entries(frontend, session):
        return [
            name
            for name, value in vars(frontend).items()
            if isinstance(value, dict) and session in value
        ]

    def test_nothing_is_kept_once_a_session_is_served(self):
        frontend, request, (outcome, _) = self._serve("forgets-ok")
        assert outcome.status == "released", outcome
        assert outcome.release_frame == _solo_frame(request)
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
        frontend, _, (outcome, stages) = self._serve("forgets-abort")
        assert (outcome.status, outcome.frontend, outcome.party) == (
            "aborted",
            "fe-test",
            "prover-1",
        )
        assert stages is None
        assert self._per_session_entries(frontend, self.SID) == []


class MorraEquivocatingProver(Prover):
    """Opens its first Morra commitment to a value it never committed:
    the session aborts naming it, in process and over the wire alike."""

    def reveal(self, values, randomness, observed):
        values, randomness = super().reveal(values, randomness, observed)
        return [values[0] + 1, *values[1:]], randomness


def _liar():
    """A client whose share for prover-1 does not open its commitment."""
    return InconsistentShareClient(
        "client-1", [1], victim_prover=1, rng=SeededRNG("blame/liar")
    )


# Cell -> (the cheating prover, its factory, the cheating client-1 or None).
BLAME_CELLS = {
    **{
        f"{cheat}/{name}": (cheat, factory, None)
        for cheat in ("prover-0", "prover-1")
        for name, factory in CHEATERS.items()
    },
    "prover-1/morra-equivocate": ("prover-1", MorraEquivocatingProver, None),
    "client-1/inconsistent-share": (None, None, _liar),
}


def _blame_request(index: int, cell: str) -> SessionRequest:
    client = BLAME_CELLS[cell][2]
    values = [1, 0, 1, 1]
    if client is not None:
        values[1] = client()
    return SessionRequest(index, QUERY, values, seed=f"blame/{cell}")


def _prover(cell: str, name: str):
    """The prover class ``name`` runs in ``cell``."""
    cheat, factory, _ = BLAME_CELLS[cell]
    return factory if name == cheat else Prover


def _in_process(request: SessionRequest, cell: str):
    """The same session run in process with the cell's cheater:
    ``("released", release)`` or ``("aborted", party)``."""
    rng = SeededRNG(request.seed)
    params = QUERY.build_params(num_provers=2, group="p64-sim", nb_override=16)
    cast = [
        _prover(cell, name)(name, params, fork_rng(rng, name), plan=QUERY.build_plan())
        for name in ("prover-0", "prover-1")
    ]
    engine = build_engine(QUERY, num_provers=2, params=params, provers=cast, rng=rng)
    engine.submit_clients(
        value
        if isinstance(value, Client)
        else QUERY.make_client(f"client-{i}", value, fork_rng(rng, f"client-{i}"))
        for i, value in enumerate(request.values)
    )
    try:
        return "released", engine.run_release().release
    except ProtocolAbort as exc:
        return "aborted", exc.party


def _swap_in_cheaters(patch) -> None:
    """Make each peer's prover the one its cell gives its name: the cell
    is read off the session seed when the peer starts.  Patched before
    the fork, a forked front-end or peer inherits both patches."""
    peer = threading.local()
    real_run_role = roles.run_role

    def run_role(role, name, transport, **kwargs):
        peer.prover = _prover(kwargs["seed"].removeprefix("blame/"), name)
        return real_run_role(role, name, transport, **kwargs)

    def server_node(*args, **kwargs):
        return ServerNode(*args, prover_factory=peer.prover, **kwargs)

    patch.setattr(roles, "run_role", run_role)
    patch.setattr(roles, "ServerNode", server_node)


class TestFleetBlame:
    """A cheater served through the fleet ends its session as the
    in-process run with the same cheater and seed does: an abort names
    the same party, and a release — whose audit names the cheater and
    no one else — is the same bytes.  Every cell is served by one
    front-end of two slots; a cheating prover is swapped in on its peer
    thread, a cheating client travels in the request's values."""

    @pytest.fixture(scope="class")
    def served(self):
        config = FleetConfig(
            frontends=1, capacity=2, num_servers=2, nb_override=16, timeout=30.0
        )
        with pytest.MonkeyPatch.context() as patch:
            _swap_in_cheaters(patch)
            with FleetDispatcher(config) as dispatcher:
                for index, cell in enumerate(BLAME_CELLS):
                    dispatcher.submit(_blame_request(index, cell))
                assert dispatcher.wait(timeout=90.0), dispatcher.outcomes
        return dispatcher.outcomes

    @pytest.mark.parametrize("cell", list(BLAME_CELLS))
    def test_outcome_is_the_in_process_one(self, served, cell):
        index = list(BLAME_CELLS).index(cell)
        cheat = BLAME_CELLS[cell][0]
        status, detail = _in_process(_blame_request(index, cell), cell)
        outcome = served[index]
        assert (outcome.status, outcome.frontend) == (status, "fe-0"), outcome
        if status == "aborted":
            assert outcome.party == detail == cheat
            return
        assert outcome.release_frame == encode_message(detail)
        blamed = {n for n, v in detail.audit.provers.items() if v != ProverStatus.HONEST}
        blamed |= {n for n, v in detail.audit.clients.items() if v != ClientStatus.VALID}
        if cheat is None:
            assert blamed == {"client-1"}
        else:  # biased coins are still bits: nothing to catch
            assert blamed == (set() if cell.endswith("/biased") else {cheat})


class TestForkedSocketBlame:
    """The same cells through the solo socket session, every peer a
    forked process: each ends as the in-process run does — the same
    status, the same party named, the same release bytes."""

    @pytest.mark.parametrize("cell", list(BLAME_CELLS))
    def test_outcome_is_the_in_process_one(self, monkeypatch, cell):
        _swap_in_cheaters(monkeypatch)
        request = _blame_request(list(BLAME_CELLS).index(cell), cell)
        try:
            outcome = serve.run_distributed_session(
                QUERY,
                request.values,
                transport="socket",
                nb_override=16,
                seed=request.seed,
                timeout=30.0,
                verify_equivalence=False,
            )
        except ProtocolAbort as exc:
            served = ("aborted", exc.party)
        else:
            served = ("released", outcome["release_frame"])
        status, detail = _in_process(request, cell)
        if status == "released":
            detail = encode_message(detail)
        assert served == (status, detail)


class TestCommandLoop:
    """The worker's main thread, driven in-process through a pipe.

    Each placed session is a stand-in for ``_run_session`` that marks
    itself entered, holds its thread until the test opens that request's
    gate, then returns the outcome the test chose — so what is in flight
    and reported is fixed by the commands alone, not by how fast a real
    session runs.
    """

    @pytest.fixture
    def loop(self, monkeypatch):
        here, there = multiprocessing.Pipe()
        frontend = _FrontEnd(
            "fe-test",
            there,
            FleetConfig(frontends=1, capacity=1, num_servers=2, nb_override=16),
        )
        gates: dict[int, threading.Event] = {}
        entered: dict[int, threading.Event] = {}
        outcomes: dict[int, str] = {}

        def gate(request_id):
            return gates.setdefault(request_id, threading.Event())

        def enter(request_id):
            return entered.setdefault(request_id, threading.Event())

        def run_session(request, sid):
            enter(request.request_id).set()
            gate(request.request_id).wait(10.0)
            status = outcomes.get(request.request_id, "released")
            return SessionOutcome(request.request_id, frontend.name, status), None

        monkeypatch.setattr(frontend, "_run_session", run_session)
        thread = threading.Thread(target=frontend.run, daemon=True)
        thread.start()

        def recv():
            assert here.poll(5.0), "no outcome from the worker"
            return here.recv()

        def place(*ids):
            for request_id in ids:
                request = SessionRequest(request_id, QUERY, [1, 0, 1], seed=None)
                here.send({"cmd": "place", "request": request})

        def session_thread(sid):
            (found,) = [
                t for t in threading.enumerate() if t.name == f"fe-test-session-{sid}"
            ]
            return found

        loop = types.SimpleNamespace(
            thread=thread,
            outcomes=outcomes,
            session_thread=session_thread,
            send=here.send,
            recv=recv,
            quiet=lambda: not here.poll(0.3),
            place=place,
            entered=lambda request_id: enter(request_id).wait(5.0),
            open=lambda request_id: gate(request_id).set(),
            close=here.close,
        )
        try:
            yield loop
        finally:
            for event in list(gates.values()):
                event.set()
            if thread.is_alive() and not here.closed:
                here.send({"cmd": "stop"})
            thread.join(5.0)
            for session in threading.enumerate():
                if session.name.startswith("fe-test-session-"):
                    session.join(5.0)
            if not here.closed:
                here.close()
            there.close()
        assert not thread.is_alive()

    def test_outcomes_are_sent_counted_and_free_the_slot(self, loop):
        """Each session's outcome goes to the dispatcher as it ends, and
        its slot is free again: on a one-slot front-end, the next
        placement starts once the first has reported."""
        loop.outcomes[0] = "aborted"
        loop.place(0)
        assert loop.entered(0)
        loop.open(0)
        assert loop.recv() == (SessionOutcome(0, "fe-test", "aborted"), None)
        loop.place(1)
        assert loop.entered(1)
        loop.open(1)
        assert loop.recv() == (SessionOutcome(1, "fe-test", "released"), None)

    def test_only_place_and_stop_are_commands(self, loop):
        """The loop answers no other command: a ``ping`` or ``steal`` gets
        no reply and changes nothing, and the next placement is served
        and reported as before."""
        loop.send({"cmd": "ping"})
        loop.send({"cmd": "steal", "count": 1})
        assert loop.quiet()
        loop.place(0)
        assert loop.entered(0)
        assert loop.quiet()
        loop.open(0)
        assert loop.recv() == (SessionOutcome(0, "fe-test", "released"), None)
        assert loop.quiet()
        assert loop.thread.is_alive()

    def test_stop_returns_while_a_session_is_held(self, loop):
        """``stop`` does not wait for a session in flight: the main thread
        returns while the session's thread is still held, and that thread
        is a daemon, so process exit ends it."""
        loop.place(0)
        assert loop.entered(0)
        loop.send({"cmd": "stop"})
        loop.thread.join(5.0)
        assert not loop.thread.is_alive()
        session = loop.session_thread(0)
        assert session.is_alive() and session.daemon

    def test_an_outcome_after_the_pipe_closed_is_dropped(self, loop):
        """A session that ends once the dispatcher's pipe has closed drops
        its outcome: its thread ends with no exception (one would fail
        this test as an unhandled thread exception)."""
        loop.place(0)
        assert loop.entered(0)
        loop.close()
        loop.thread.join(5.0)
        assert not loop.thread.is_alive()
        session = loop.session_thread(0)
        loop.open(0)
        session.join(5.0)
        assert not session.is_alive()

    def test_a_closed_pipe_ends_the_loop(self, loop):
        """A dispatcher that died without a word is a ``stop``: the worker
        exits instead of serving headless."""
        loop.close()
        loop.thread.join(5.0)
        assert not loop.thread.is_alive()
