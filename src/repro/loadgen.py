"""An open-loop load generator for the serving fleet (``repro loadgen``).

Closed-loop clients (issue, wait, issue) measure the *server's* pace:
when the fleet slows down, a closed loop offers less load, and the
latency numbers flatter the system — the coordinated-omission trap.
This generator is **open-loop** in the Locust/YCSB sense: session
arrivals follow a Poisson process at ``--rate`` per second, scheduled
*before* the run starts, and a slow fleet changes nothing about when
the next session is offered — queueing delay shows up in the latency
percentiles where it belongs.

Determinism: the whole offered load — arrival instants, the churning
client population behind every session, each session's root seed, and
therefore the exact bytes written to the wire — is computed up front
from ``--seed`` via :class:`~repro.utils.rng.SeededRNG`.  Two runs with
the same seed offer byte-identical load (``bytes_sent`` is exact and
reproducible); only the measured latencies differ.  Session *i* runs
under seed ``{seed}/g{i}``, so any served session can be replayed solo
through :class:`repro.api.Session` for the byte-identity check.

The population churns: the generator keeps ``--clients`` members and
replaces ``--churn`` of them (round-robin positions, freshly drawn
values) before each arrival — a stream of overlapping-but-distinct
populations rather than one frozen cohort, which is what a long-lived
deployment actually sees.

The target is a :class:`~repro.net.gateway.FleetGateway`
(``repro fleet --listen PORT``); the protocol is one JSON line
per session out, one reply line per outcome back, fully pipelined.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

__all__ = ["Arrival", "LoadPlan", "build_plan", "run_loadgen", "percentile"]


@dataclass
class Arrival:
    """One offered session: when, and the exact bytes that offer it."""

    index: int
    at_s: float
    payload: dict
    line: bytes


@dataclass
class LoadPlan:
    """The full offered load, computed before the run starts."""

    seed: str
    rate: float
    duration: float
    clients: int
    churn: int
    arrivals: list[Arrival] = field(default_factory=list)

    @property
    def bytes_planned(self) -> int:
        """Exact wire bytes the plan will send (deterministic per seed)."""
        return sum(len(arrival.line) for arrival in self.arrivals)


def _uniform(rng: SeededRNG) -> float:
    """A uniform draw in (0, 1] — SeededRNG deals in integers only, so
    build the float from 53 bits (IEEE double mantissa width); +1 keeps
    0 out of the log below."""
    return (rng.randbits(53) + 1) / 2.0**53


def build_plan(
    *,
    rate: float,
    duration: float,
    seed: str,
    clients: int = 6,
    churn: int = 1,
    bins: int = 1,
) -> LoadPlan:
    """Precompute the Poisson arrival schedule and per-session payloads.

    Inter-arrival gaps are exponential with mean ``1/rate`` (the Poisson
    process), drawn from ``SeededRNG(seed).fork("arrivals")``; the
    churning population draws from ``fork("population")`` — two
    independent deterministic streams, so changing the churn policy
    never shifts the arrival schedule.
    """
    if rate <= 0:
        raise ParameterError("rate must be > 0 sessions/sec")
    if duration <= 0:
        raise ParameterError("duration must be > 0 seconds")
    if clients < 1:
        raise ParameterError("clients must be >= 1")
    if not 0 <= churn <= clients:
        raise ParameterError("churn must be between 0 and clients")
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    root = SeededRNG(seed)
    arrival_rng = root.fork("arrivals")
    population_rng = root.fork("population")
    values = [i % max(2, bins) if bins > 1 else i % 2 for i in range(clients)]

    plan = LoadPlan(
        seed=seed, rate=rate, duration=duration, clients=clients, churn=churn
    )
    t = 0.0
    index = 0
    while True:
        t += -math.log(_uniform(arrival_rng)) / rate
        if t >= duration:
            return plan
        for c in range(churn):
            pos = (index * churn + c) % clients
            values[pos] = (
                population_rng.coin() if bins == 1 else population_rng.randbelow(bins)
            )
        payload = {
            "op": "session",
            "id": index,
            "values": list(values),
            "seed": f"{seed}/g{index}",
        }
        line = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        plan.arrivals.append(Arrival(index, t, payload, line))
        index += 1


def percentile(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank percentile over an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_loadgen(
    *,
    host: str = "127.0.0.1",
    port: int,
    rate: float,
    duration: float,
    seed: str = "loadgen",
    clients: int = 6,
    churn: int = 1,
    bins: int = 1,
    drain_timeout: float = 120.0,
    plan: LoadPlan | None = None,
) -> dict:
    """Offer the plan to a gateway and report what came back.

    Open-loop discipline: the send loop sleeps until each arrival's
    instant and writes its line, never waiting for a reply; a reader
    thread collects outcome lines concurrently.  After the offered
    window closes the run lingers up to ``drain_timeout`` for
    outstanding replies (they count as completed-late, not lost).
    """
    if plan is None:
        plan = build_plan(
            rate=rate,
            duration=duration,
            seed=seed,
            clients=clients,
            churn=churn,
            bins=bins,
        )

    sent_at: dict[int, float] = {}
    replies: dict[int, dict] = {}
    latencies: dict[int, float] = {}
    bytes_received = 0
    reply_lock = threading.Lock()
    all_replied = threading.Event()
    expected = len(plan.arrivals)

    sock = socket.create_connection((host, port), timeout=drain_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def read_replies() -> None:
        nonlocal bytes_received
        try:
            with sock.makefile("rb") as lines:
                for raw in lines:
                    now = time.monotonic()
                    with reply_lock:
                        bytes_received += len(raw)
                    try:
                        reply = json.loads(raw)
                    except ValueError:
                        continue
                    rid = reply.get("id")
                    with reply_lock:
                        if rid is not None and rid not in replies:
                            replies[rid] = reply
                            if rid in sent_at:
                                latencies[rid] = now - sent_at[rid]
                        done = len(replies) >= expected
                    if done:
                        all_replied.set()
                        return
        except OSError:
            pass
        all_replied.set()

    reader = threading.Thread(target=read_replies, name="loadgen-reader", daemon=True)
    reader.start()

    bytes_sent = 0
    start = time.monotonic()
    try:
        for arrival in plan.arrivals:
            delay = start + arrival.at_s - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent_at[arrival.index] = time.monotonic()
            sock.sendall(arrival.line)
            bytes_sent += len(arrival.line)
        all_replied.wait(timeout=drain_timeout)
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
        reader.join(timeout=5.0)
    wall_s = time.monotonic() - start

    with reply_lock:
        statuses: dict[str, int] = {}
        for reply in replies.values():
            status = reply.get("status", "unknown")
            statuses[status] = statuses.get(status, 0) + 1
        released = statuses.get("released", 0)
        released_latencies = sorted(
            latencies[rid]
            for rid, reply in replies.items()
            if reply.get("status") == "released" and rid in latencies
        )
        completed = len(replies)

    return {
        "seed": plan.seed,
        "rate": plan.rate,
        "duration_s": plan.duration,
        "clients": plan.clients,
        "churn": plan.churn,
        "offered": expected,
        "completed": completed,
        "lost": expected - completed,
        "released": released,
        "aborted": statuses.get("aborted", 0),
        "crashed": statuses.get("crashed", 0),
        "rejected": statuses.get("rejected", 0),
        "timeout": statuses.get("timeout", 0),
        "wall_s": wall_s,
        "offered_rate": expected / plan.duration,
        "throughput_sessions_per_sec": released / wall_s if wall_s > 0 else 0.0,
        "p50_s": percentile(released_latencies, 0.50),
        "p95_s": percentile(released_latencies, 0.95),
        "p99_s": percentile(released_latencies, 0.99),
        "bytes_sent": bytes_sent,
        "bytes_planned": plan.bytes_planned,
        "bytes_received": bytes_received,
    }
