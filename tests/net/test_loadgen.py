"""Load generator: deterministic plans, open-loop delivery, gateway E2E.

Pinned here:

* same seed ⇒ the same Poisson arrival schedule, the same churned
  payloads, the same exact wire bytes (``bytes_planned``); a different
  seed ⇒ a different schedule — the plan IS the experiment definition;
* a full open-loop run against a live :class:`FleetGateway` loses
  nothing: every offered session gets an outcome, ``bytes_sent`` equals
  the plan's ``bytes_planned``, and a concurrent ``/metrics`` scrape
  agrees with the generator's own report (admitted == offered,
  in-flight back to 0);
* malformed gateway requests are rejected with a reason, not a hang.
"""

import json
import socket
import time

import pytest

from repro.api.queries import CountQuery
from repro.errors import ParameterError
from repro.loadgen import build_plan, percentile, run_loadgen
from repro.net.fleet import FleetConfig, FleetDispatcher
from repro.net.gateway import FleetGateway
from repro.net.metrics import MetricsServer, ServingMetrics

QUERY = CountQuery(epsilon=1.0, delta=2**-10)


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        a = build_plan(rate=5.0, duration=4.0, seed="det", clients=6, churn=2)
        b = build_plan(rate=5.0, duration=4.0, seed="det", clients=6, churn=2)
        assert [x.at_s for x in a.arrivals] == [x.at_s for x in b.arrivals]
        assert [x.line for x in a.arrivals] == [x.line for x in b.arrivals]
        assert a.bytes_planned == b.bytes_planned > 0

    def test_different_seed_different_schedule(self):
        a = build_plan(rate=5.0, duration=4.0, seed="det")
        b = build_plan(rate=5.0, duration=4.0, seed="det-2")
        assert [x.at_s for x in a.arrivals] != [x.at_s for x in b.arrivals]

    def test_arrivals_within_window_and_sessions_seeded(self):
        plan = build_plan(rate=10.0, duration=2.0, seed="window")
        assert all(0 < arrival.at_s < 2.0 for arrival in plan.arrivals)
        for arrival in plan.arrivals:
            assert arrival.payload["seed"] == f"window/g{arrival.index}"
            assert json.loads(arrival.line) == arrival.payload

    def test_churn_changes_population_between_arrivals(self):
        plan = build_plan(rate=50.0, duration=2.0, seed="churn", clients=4, churn=2)
        populations = {tuple(arrival.payload["values"]) for arrival in plan.arrivals}
        assert len(populations) > 1

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="rate"):
            build_plan(rate=0, duration=1.0, seed="x")
        with pytest.raises(ParameterError, match="duration"):
            build_plan(rate=1.0, duration=0, seed="x")
        with pytest.raises(ParameterError, match="churn"):
            build_plan(rate=1.0, duration=1.0, seed="x", clients=2, churn=3)

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) is None
        assert percentile([1.0], 0.99) == 1.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0


class TestGatewayE2E:
    def _fleet_config(self):
        return FleetConfig(
            frontends=2, capacity=2, num_servers=2, nb_override=16, timeout=60.0
        )

    def test_open_loop_run_loses_nothing_and_metrics_agree(self):
        """~6 offered sessions at 3/s against a live 2-front-end fleet:
        all released, exact wire bytes match the plan, and the
        concurrent /metrics scrape tells the same story."""
        metrics = ServingMetrics()
        server = MetricsServer(metrics.registry)
        dispatcher = FleetDispatcher(self._fleet_config(), metrics=metrics)
        dispatcher.start()
        gateway = FleetGateway(dispatcher, QUERY, timeout=60.0)
        try:
            report = run_loadgen(
                port=gateway.port,
                rate=3.0,
                duration=2.0,
                seed="e2e",
                clients=4,
                drain_timeout=60.0,
            )
            assert report["offered"] > 0
            assert report["lost"] == 0
            assert report["released"] == report["offered"]
            assert report["bytes_sent"] == report["bytes_planned"]
            assert report["bytes_received"] > 0
            assert report["p50_s"] is not None
            assert gateway.admitted == report["offered"]
            assert dispatcher.drain(timeout=60.0)
            text_samples = _scrape(server.port)
            assert (
                text_samples["repro_sessions_admitted_total"] == report["offered"]
            )
            assert (
                text_samples["repro_sessions_completed_total"]
                == report["released"]
            )
            assert text_samples["repro_sessions_in_flight"] == 0
        finally:
            gateway.close()
            dispatcher.stop()
            server.close()

    def test_bad_requests_rejected_with_reason(self):
        """A malformed line, an unknown op, a seed that is no string, and
        values the query cannot encode are each rejected with a reason
        before admission: none reaches a worker, whose client runner
        would die on it and get the session blamed on the wrong party."""
        bad = [
            b"not json",
            b'{"op":"bogus"}',
            b'{"values": [1, 0, 1], "seed": [1]}',
            b'{"values": ["x", 1]}',
            b'{"values": [2, 1]}',
        ]
        metrics = ServingMetrics()
        dispatcher = FleetDispatcher(self._fleet_config(), metrics=metrics)
        dispatcher.start()
        gateway = FleetGateway(dispatcher, QUERY, timeout=30.0)
        try:
            with socket.create_connection(("127.0.0.1", gateway.port), 10.0) as conn:
                conn.sendall(b"\n".join([*bad, b'{"op":"ping"}']) + b"\n")
                with conn.makefile("rb") as lines:
                    replies = [json.loads(next(lines)) for _ in range(len(bad) + 1)]
            assert {"ok": True} in replies
            rejected = [r for r in replies if r.get("status") == "rejected"]
            assert len(rejected) == len(bad), replies
            assert all(r["reason"].startswith("bad request: ") for r in rejected)
            assert "seed" in rejected[2]["reason"]
            assert gateway.rejected == len(bad) and gateway.admitted == 0
            assert dispatcher.outcomes == {}
            assert metrics.admitted.value() == 0
        finally:
            gateway.close()
            dispatcher.stop()

    @pytest.mark.parametrize("live_connection", [False, True])
    def test_close_wakes_the_accept_thread(self, live_connection):
        """``close()`` used to sit out its whole 5 s join: closing a
        listening socket does not wake a thread parked in ``accept()``.
        Idle or with a client attached, it returns promptly and leaves
        no accept thread behind."""
        gateway = FleetGateway(FleetDispatcher(self._fleet_config()), QUERY)
        conn = None
        if live_connection:
            conn = socket.create_connection(("127.0.0.1", gateway.port), 10.0)
            conn.sendall(b'{"op":"ping"}\n')
            assert json.loads(conn.makefile("rb").readline()) == {"ok": True}
        time.sleep(0.2)  # let the accept thread park in accept()
        start = time.monotonic()
        gateway.close()
        assert time.monotonic() - start < 1.0
        assert not gateway._accept_thread.is_alive()
        gateway.close()  # idempotent
        if conn is not None:
            conn.close()


def _scrape(port: int) -> dict[str, float]:
    import urllib.request

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
