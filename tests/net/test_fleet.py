"""Fleet serving: placement, byte-identity, crash restart, drain, stealing.

The fleet layer's contract, pinned end to end:

* every session served through the fleet releases byte-identical to the
  seeded in-process :class:`repro.api.Session` — including the
  ``shards``-per-session composition;
* a front-end killed mid-session costs an *attributed* ``crashed``
  outcome (party = the dead worker), never a hang, and the dispatcher
  restarts the worker and keeps serving;
* drain finishes everything already admitted and admits nothing new;
* a hot front-end's queued sessions are stolen onto an idle one;
* every front-end keeps to its share of the CPUs.
"""

import os
import sys
import time

import pytest

from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError
from repro.net.fleet import (
    FleetConfig,
    FleetDispatcher,
    SessionRequest,
    _cpu_share,
    run_fleet,
    session_seed,
    session_values,
)
from repro.utils.rng import SeededRNG

DELTA = 2**-10
QUERY = CountQuery(epsilon=1.0, delta=DELTA)


def _solo_frame(request, outcome, num_servers=2, group="p64-sim", nb=16):
    solo = Session(
        request.query,
        num_provers=num_servers,
        group=group,
        nb_override=nb,
        chunk_size=outcome.chunk_size,
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
            frontends=2,
            capacity=2,
            num_servers=2,
            group="p64-sim",
            nb_override=16,
            seed="fleet-bytes",
            timeout=60.0,
        )
        assert outcome["released"] == 4
        assert outcome["crashed"] == 0 and outcome["aborted"] == 0
        assert outcome["accepted"] and outcome["byte_identical"]
        assert outcome["frontends_used"] == ["fe-0", "fe-1"]
        assert all(
            row["byte_identical"] for row in outcome["session_rows"]
        ), outcome["session_rows"]

    def test_fleet_sharded_composition_byte_identical(self):
        """The --fleet --shards composition: every session fans its
        verification across 2 shard workers and still releases
        byte-identical (at the pinned effective chunk size)."""
        outcome = run_fleet(
            QUERY,
            [1, 0, 1, 1],
            sessions=3,
            frontends=2,
            capacity=2,
            shards=2,
            num_servers=2,
            group="p64-sim",
            nb_override=16,
            seed="fleet-shards",
            timeout=60.0,
        )
        assert outcome["released"] == 3
        assert outcome["accepted"] and outcome["byte_identical"]
        assert len(outcome["frontends_used"]) == 2

    def test_config_file_round_trip_and_unknown_keys(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text('{"frontends": 3, "capacity": 1, "shards": 2}')
        config = FleetConfig.from_file(str(path))
        assert (config.frontends, config.capacity, config.shards) == (3, 1, 2)
        path.write_text('{"frontends": 3, "workers": 9}')
        with pytest.raises(ParameterError, match="workers"):
            FleetConfig.from_file(str(path))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"frontends": "2"}', "frontends"),
            ('{"capacity": true}', "capacity"),
            ('{"shards": 1.5}', "shards"),
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
            FleetConfig(shards=-1)


class TestCpuShares:
    def test_cpus_are_dealt_round_the_frontends(self):
        """Disjoint shares that cover the CPUs while there are enough of
        them, one front-end keeps them all, and beyond one-per-CPU the
        CPUs are reused round-robin, one each."""
        cpus = [0, 1, 2, 3, 6, 7]
        assert _cpu_share(cpus, 0, 1) == cpus
        assert [_cpu_share(cpus, s, 2) for s in range(2)] == [[0, 2, 6], [1, 3, 7]]
        shares = [_cpu_share(cpus, s, 4) for s in range(4)]
        assert shares == [[0, 6], [1, 7], [2], [3]]
        assert [_cpu_share([4, 5], s, 5) for s in range(5)] == [[4], [5], [4], [5], [4]]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here"
    )
    def test_each_frontend_keeps_to_its_share(self):
        """Two front-ends that have each served a session run on the
        shares of this process's CPUs their pool slots were dealt — on a
        host with two or more CPUs, never on each other's."""
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
        assert held == [_cpu_share(cpus, slot, 2) for slot in range(2)]
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
                assert outcome.release_frame == _solo_frame(request, outcome)

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
                assert outcome.release_frame == _solo_frame(request, outcome)

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
                assert outcome.release_frame == _solo_frame(request, outcome)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/status"
    )
    def test_worker_memory_is_flat_in_sessions_served(self):
        """A front-end forgets a session once it is served: 40 sessions
        through one worker leave its resident set after the 40th within
        2 MB of where it stood after the 10th.  While the worker's mux
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
