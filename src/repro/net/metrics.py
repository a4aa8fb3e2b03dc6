"""Dependency-free Prometheus-text metrics for the serving stack.

Serving at fleet scale is only trustworthy if it is *observable while it
happens*: an open-loop load run (``repro loadgen``) needs live counters
to prove the fleet actually admitted/completed what the generator
offered, and a long-lived deployment needs its queue depth and per-phase
engine timings without attaching a profiler.  This module provides the
whole surface with nothing beyond the standard library:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — labeled,
  thread-safe instruments over a shared :class:`MetricsRegistry` that
  renders the Prometheus text exposition format (``# HELP`` / ``# TYPE``
  plus one line per labeled series).
* :class:`MetricsServer` — a daemon-thread ``http.server`` answering
  ``GET /metrics`` with the registry's rendering; ephemeral-port
  friendly (``port=0`` binds one and exposes it as ``.port``).
* :class:`ServingMetrics` — the serving stack's instrument set, fed
  by :class:`~repro.net.fleet.FleetDispatcher`: session outcome counters
  (admitted / completed / aborted / crashed), in-flight, queued and
  per-front-end placed gauges, and per-phase engine-latency histograms
  fed by the ``phase:*`` stage entries that
  :class:`~repro.api.engine.ProtocolEngine` accumulates at each phase
  transition.

Everything here is passive: instruments mutate ints/floats under a
lock, and scrapes render a snapshot.  Nothing in the protocol path
blocks on a scrape, and a serving mode constructed without metrics pays
only ``None`` checks.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "ServingMetrics",
    "DEFAULT_BUCKETS",
]

# Latency buckets tuned for this stack: pure-python sessions run tens of
# milliseconds (p64-sim, small nb) up to minutes (paper-scale nb).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labelnames, labelvalues, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Shared labeled-series plumbing for the three instrument kinds."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labelnames=()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        with self._lock:
            series = sorted(self._series.items())
        for labelvalues, value in series:
            lines.extend(self._render_series(labelvalues, value))
        return lines

    def _render_series(self, labelvalues, value) -> list[str]:
        labels = _render_labels(self.labelnames, labelvalues)
        return [f"{self.name}{labels} {_format_value(value)}"]


class Counter(_Metric):
    """A monotonically increasing count (per labeled series)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ParameterError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """A value that goes up and down (in-flight sessions, queue depth)."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Metric):
    """Cumulative-bucket latency distribution (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(
        self, name, help_text, labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ParameterError("histogram needs at least one bucket bound")
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"buckets": [0] * len(self.bounds), "sum": 0.0, "count": 0}
                self._series[key] = series
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    series["buckets"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def _render_series(self, labelvalues, series) -> list[str]:
        lines = []
        for bound, count in zip(self.bounds, series["buckets"]):
            labels = _render_labels(
                self.labelnames, labelvalues, extra=(("le", _format_value(bound)),)
            )
            lines.append(f"{self.name}_bucket{labels} {count}")
        inf_labels = _render_labels(
            self.labelnames, labelvalues, extra=(("le", "+Inf"),)
        )
        lines.append(f"{self.name}_bucket{inf_labels} {series['count']}")
        labels = _render_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{labels} {_format_value(series['sum'])}")
        lines.append(f"{self.name}_count{labels} {series['count']}")
        return lines


class MetricsRegistry:
    """A named collection of instruments rendering to one text page."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ParameterError(
                        f"metric {metric.name!r} already registered with a "
                        "different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help_text: str, labelnames=()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str, labelnames=()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self, name: str, help_text: str, labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help_text, labelnames, buckets))

    def render(self) -> str:
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class MetricsServer:
    """``GET /metrics`` over a daemon-thread stdlib HTTP server."""

    def __init__(
        self, registry: MetricsRegistry, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        render = registry.render

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                if self.path.split("?")[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = render().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # scrapes are not server news
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"metrics-server-{self.port}",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


class ServingMetrics:
    """The serving stack's instrument set over one registry.

    One instance is fed by the :class:`~repro.net.fleet.FleetDispatcher`
    with what every front-end reports, so a single ``/metrics`` page
    tells the whole story.  The outcome taxonomy is
    the fleet's: ``completed`` (released), ``aborted`` (the protocol
    rejected it, attributed), ``crashed`` (infrastructure died under
    it).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.admitted = r.counter(
            "repro_sessions_admitted_total", "Sessions admitted for serving"
        )
        self.completed = r.counter(
            "repro_sessions_completed_total", "Sessions released successfully"
        )
        self.aborted = r.counter(
            "repro_sessions_aborted_total",
            "Sessions the protocol aborted (attributed rejections)",
        )
        self.crashed = r.counter(
            "repro_sessions_crashed_total",
            "Sessions lost to infrastructure death (attributed, never hung)",
        )
        self.restarts = r.counter(
            "repro_frontend_restarts_total",
            "Front-end worker processes respawned after a crash",
            labelnames=("frontend",),
        )
        self.in_flight = r.gauge(
            "repro_sessions_in_flight", "Admitted sessions without an outcome yet"
        )
        self.queued = r.gauge(
            "repro_sessions_queued",
            "Admitted sessions waiting in the dispatcher for a free slot",
        )
        self.frontend_in_flight = r.gauge(
            "repro_frontend_in_flight",
            "Sessions placed on a front-end and without an outcome yet",
            labelnames=("frontend",),
        )
        self.phase_seconds = r.histogram(
            "repro_engine_phase_seconds",
            "Wall-clock seconds spent per ProtocolEngine phase",
            labelnames=("phase",),
        )
        self.session_seconds = r.histogram(
            "repro_session_seconds", "End-to-end seconds per served session"
        )
        # Materialize the label-less series at zero so the very first
        # scrape already shows the whole ledger (a counter that has
        # never fired still renders, and rate() over it is well-defined).
        for counter in (
            self.admitted,
            self.completed,
            self.aborted,
            self.crashed,
        ):
            counter.inc(0)
        self.in_flight.set(0)
        self.queued.set(0)

    # Recording helpers -----------------------------------------------------

    def session_admitted(self, count: int = 1) -> None:
        self.admitted.inc(count)
        self.in_flight.inc(count)

    def session_finished(
        self,
        status: str,
        *,
        stages: dict | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        """Record one outcome: ``released`` / ``aborted`` / ``crashed``.

        Pairs with exactly one prior :meth:`session_admitted` — the
        in-flight gauge's return to zero after a drain is part of the
        endpoint's contract (and pinned by tests).
        """
        counter = {
            "released": self.completed,
            "aborted": self.aborted,
            "crashed": self.crashed,
        }.get(status)
        if counter is None:
            raise ParameterError(f"unknown session outcome status {status!r}")
        counter.inc()
        self.in_flight.dec()
        if elapsed_s is not None:
            self.session_seconds.observe(elapsed_s)
        if stages:
            self.observe_stages(stages)

    def observe_stages(self, stages: dict) -> None:
        """Feed a :class:`~repro.utils.timing.StageTimer` stages dict's
        ``phase:*`` entries into the per-phase histogram."""
        for name, seconds in stages.items():
            if name.startswith("phase:"):
                self.phase_seconds.observe(seconds, phase=name[len("phase:") :])
