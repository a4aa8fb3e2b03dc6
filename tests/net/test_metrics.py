"""Metrics: instruments, the /metrics endpoint, and the live-fleet ledger.

The observability contract, pinned end to end:

* the instruments render valid Prometheus text (counters reject
  negative increments, histograms emit cumulative ``le`` buckets plus
  ``+Inf``/``_sum``/``_count``, labels escape cleanly);
* :class:`~repro.api.engine.ProtocolEngine` notifies phase observers at
  every transition with the elapsed wall time, and accumulates the same
  numbers as ``phase:*`` stage entries;
* a live fleet scrape balances the books — counters only go up,
  ``repro_sessions_in_flight`` returns to 0 after a drain, and a killed
  front-end increments ``repro_sessions_crashed_total`` — so an
  operator watching ``/metrics`` sees exactly what the dispatcher did.
"""

import time
import urllib.error
import urllib.request

import pytest

from repro.api.engine import add_phase_observer, remove_phase_observer
from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.errors import ParameterError
from repro.net.fleet import FleetConfig, FleetDispatcher, SessionRequest
from repro.net.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    ServingMetrics,
)
from repro.utils.rng import SeededRNG

QUERY = CountQuery(epsilon=1.0, delta=2**-10)


def _scrape(port: int) -> dict[str, float]:
    """GET /metrics and parse the sample lines into {series: value}."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10.0
    ) as response:
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        samples[series] = float(value)
    return samples


class TestInstruments:
    def test_counter_renders_and_rejects_negative(self):
        counter = Counter("jobs_total", "Jobs", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 2
        rendered = counter.render()
        assert "# TYPE jobs_total counter" in rendered
        assert 'jobs_total{kind="a"} 1' in rendered
        assert 'jobs_total{kind="b"} 2' in rendered
        with pytest.raises(ParameterError, match="only go up"):
            counter.inc(-1, kind="a")

    def test_label_set_must_match(self):
        counter = Counter("jobs_total", "Jobs", labelnames=("kind",))
        with pytest.raises(ParameterError, match="takes labels"):
            counter.inc(color="red")
        with pytest.raises(ParameterError, match="takes labels"):
            counter.inc()

    def test_gauge_goes_both_ways(self):
        gauge = Gauge("depth", "Depth")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value() == 2
        gauge.set(0)
        assert gauge.value() == 0

    def test_histogram_cumulative_buckets(self):
        hist = Histogram("lat_seconds", "Latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        rendered = hist.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in rendered
        assert 'lat_seconds_bucket{le="1"} 3' in rendered
        assert 'lat_seconds_bucket{le="10"} 4' in rendered
        assert 'lat_seconds_bucket{le="+Inf"} 4' in rendered
        assert "lat_seconds_count 4" in rendered
        assert "lat_seconds_sum 6.05" in rendered

    def test_registry_idempotent_but_type_safe(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "A")
        assert registry.counter("a_total", "A") is first
        with pytest.raises(ParameterError, match="different type"):
            registry.gauge("a_total", "A")
        with pytest.raises(ParameterError, match="different type"):
            registry.counter("a_total", "A", labelnames=("x",))

    def test_label_values_escaped(self):
        counter = Counter("odd_total", "Odd", labelnames=("name",))
        counter.inc(name='he said "hi"\n')
        line = counter.render()[-1]
        assert '\\"hi\\"' in line and "\\n" in line


class TestServingMetricsLedger:
    def test_admit_finish_balances_in_flight(self):
        metrics = ServingMetrics()
        metrics.session_admitted(3)
        assert metrics.in_flight.value() == 3
        metrics.session_finished("released", elapsed_s=0.5)
        metrics.session_finished("aborted")
        metrics.session_finished("crashed")
        assert metrics.in_flight.value() == 0
        assert metrics.completed.value() == 1
        assert metrics.aborted.value() == 1
        assert metrics.crashed.value() == 1

    def test_unknown_status_rejected(self):
        metrics = ServingMetrics()
        metrics.session_admitted()
        with pytest.raises(ParameterError, match="unknown session outcome"):
            metrics.session_finished("vanished")

    def test_stage_entries_feed_phase_histogram(self):
        metrics = ServingMetrics()
        metrics.observe_stages({"phase:morra": 0.2, "sigma_verify": 1.0})
        rendered = metrics.registry.render()
        assert 'repro_engine_phase_seconds_count{phase="morra"} 1' in rendered
        assert "sigma_verify" not in rendered


class TestMetricsServer:
    def test_scrape_and_404(self):
        registry = MetricsRegistry()
        registry.counter("ticks_total", "Ticks").inc(7)
        server = MetricsServer(registry)
        try:
            samples = _scrape(server.port)
            assert samples["ticks_total"] == 7
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=10.0
                )
        finally:
            server.close()


class TestEnginePhaseObservers:
    def test_observer_sees_every_transition_and_stages_match(self):
        seen = []

        def observer(previous, new, elapsed):
            seen.append((previous.value, new.value, elapsed))

        add_phase_observer(observer)
        try:
            session = Session(
                QUERY,
                num_provers=2,
                group="p64-sim",
                nb_override=16,
                rng=SeededRNG("metrics-phases"),
            )
            session.submit([1, 0, 1])
            result = session.release()
        finally:
            remove_phase_observer(observer)
        # enroll → validate → (commit-coins → morra → adjust) per prover
        # → release → done; every phase is visited, every transition
        # carries a non-negative elapsed time.
        assert seen[0][:2] == ("enroll", "validate")
        assert seen[-1][:2] == ("release", "done")
        # Unchunked is one chunk of nb: one commit-coins lap per prover.
        assert [previous for previous, _, _ in seen].count("commit-coins") == 2
        visited = {previous for previous, _, _ in seen}
        assert visited == {
            "enroll",
            "validate",
            "commit-coins",
            "morra",
            "adjust",
            "release",
        }
        assert all(elapsed >= 0 for _, _, elapsed in seen)
        stages = result.results[0].timer.stages
        stage_keys = {k for k in stages if k.startswith("phase:")}
        assert stage_keys == {f"phase:{name}" for name in visited}

    def test_remove_unregistered_observer_is_noop(self):
        remove_phase_observer(lambda *a: None)


class TestLiveFleetScrape:
    def _wait_for(self, predicate, deadline_s=30.0, what="condition"):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.02)
        raise AssertionError(f"timed out waiting for {what}")

    def test_two_frontend_fleet_scrape_counters_monotone_drain_zeroes(self, slow_replies):
        """Serve 4 sessions over a live 2-front-end fleet while scraping
        concurrently: admitted/completed only go up between scrapes, the
        per-phase histograms fill, and after the drain the in-flight
        gauge reads exactly 0 with completed == admitted == 4."""
        metrics = ServingMetrics()
        server = MetricsServer(metrics.registry)
        config = FleetConfig(
            frontends=2, capacity=2, num_servers=2, nb_override=16, timeout=60.0
        )
        requests = [
            SessionRequest(i, QUERY, [1, 0, 1], seed=f"metrics-fleet/s{i}")
            for i in range(4)
        ]
        slow_replies(0.05, *(request.seed for request in requests))
        try:
            with FleetDispatcher(config, metrics=metrics) as dispatcher:
                previous = _scrape(server.port)
                assert previous["repro_sessions_admitted_total"] == 0
                for request in requests:
                    dispatcher.submit(request)
                    current = _scrape(server.port)
                    assert (
                        current["repro_sessions_admitted_total"]
                        >= previous["repro_sessions_admitted_total"]
                    )
                    assert (
                        current["repro_sessions_completed_total"]
                        >= previous["repro_sessions_completed_total"]
                    )
                    previous = current
                assert dispatcher.drain(timeout=60.0)
                final = _scrape(server.port)
            assert final["repro_sessions_admitted_total"] == 4
            assert final["repro_sessions_completed_total"] == 4
            assert final["repro_sessions_crashed_total"] == 0
            assert final["repro_sessions_in_flight"] == 0
            assert final["repro_sessions_queued"] == 0
            assert final['repro_engine_phase_seconds_count{phase="morra"}'] == 4
            assert final["repro_session_seconds_count"] == 4
        finally:
            server.close()

    def test_killed_frontend_increments_crashed_and_restarts(
        self, session_started, slow_replies
    ):
        """Kill fe-0 with a slow session provably in flight: the scrape
        shows crashed == 1, a restart for fe-0, and the ledger still
        balances (in-flight back to 0)."""
        metrics = ServingMetrics()
        server = MetricsServer(metrics.registry)
        config = FleetConfig(
            frontends=2, capacity=1, num_servers=2, nb_override=16, timeout=30.0
        )
        victim = SessionRequest(0, QUERY, [1, 0, 1], seed="metrics-kill/s0")
        slow_replies(0.5, victim.seed)
        started = session_started(victim.seed)
        try:
            with FleetDispatcher(config, metrics=metrics) as dispatcher:
                dispatcher.place(victim, "fe-0")
                assert started[victim.seed].wait(30.0), "victim session never started"
                dispatcher.workers["fe-0"].process.kill()
                assert dispatcher.wait({0}, timeout=60.0), dispatcher.outcomes
                self._wait_for(
                    lambda: dispatcher.restarts.get("fe-0", 0) >= 1,
                    what="fe-0 restart",
                )
                samples = _scrape(server.port)
            assert samples["repro_sessions_crashed_total"] == 1
            assert samples["repro_sessions_completed_total"] == 0
            assert samples["repro_sessions_in_flight"] == 0
            assert samples['repro_frontend_restarts_total{frontend="fe-0"}'] >= 1
        finally:
            server.close()
