"""A dispatcher-orchestrated serving fleet: many front-ends, one admission point.

One front-end process overlaps up to ``capacity`` sessions' idle time.
This module runs a pool of them — the one way ``repro serve`` serves
many sessions (``--fleet --frontends 1`` is a lone front-end):

* :class:`FleetConfig` — the declarative deployment: pool size,
  per-front-end session capacity, protocol knobs.  Loadable from a JSON
  file (``repro serve --fleet --fleet-config fleet.json``).
* :class:`FleetDispatcher` — the admission point.  Spawns one
  front-end worker process per pool slot, each serving up to
  ``capacity`` concurrent sessions on one CPU of its own.  Admitted
  sessions wait in the dispatcher's one FIFO queue until some front-end
  has a free slot, so a session is placed only where it starts at once.
  A monitor thread multiplexes every worker's command pipe and process
  sentinel: it collects outcomes, places queued sessions into the slots
  they free, re-attributes a crashed worker's placed sessions as
  *crashed* outcomes (never hangs), and respawns the worker up to
  ``max_restarts`` times.
* :func:`run_fleet` — the ``repro serve --fleet`` driver: submit a
  stream of session requests, wait, drain (stop admitting, serve the
  queue, stop each front-end once idle), and verify the cross-cutting
  invariant — every fleet-served release is byte-identical to a seeded
  in-process :class:`repro.api.Session` run with the same seed and
  chunking.

Each worker is :func:`repro.net.frontend.frontend_main`, a blocking
command loop; this module imports it (and ``multiprocessing``) only when
a dispatcher starts, so importing the fleet's types loads neither.
Inside each worker a placed session is served on a thread of its own by
the one session call, :func:`repro.net.serve.run_distributed_session`,
as the solo socket session with ``session=s`` and ``threads=True``: a
listener bound to the session, then *scoped* peer threads — one
:func:`~repro.net.roles.run_role` per entry of the cast: K
:class:`~repro.net.nodes.ServerNode` and one
:class:`~repro.net.nodes.ClientRunner` — dialing it over blocking
``roles.dial(..., session=s)`` connections.  The worker sends back the
session's :class:`SessionOutcome` itself, which the monitor records as
it comes.  That is a single-machine demo layout: in a real deployment
those peers are remote processes, and a prover thread shares the
front-end's memory (DESIGN.md "Serving fleet").  The threads exercise
exactly the wire paths remote peers would.

Failure semantics are the solo session's: a session that dies mid-phase
has its peers told to stop via the one-way ``abort`` control
(:func:`repro.net.nodes.abort_peers`) instead of being left to time out,
and the outcome names the party.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import typing
from collections import deque
from dataclasses import dataclass

from repro.api.queries import Query
from repro.errors import ParameterError

if typing.TYPE_CHECKING:
    from repro.net.metrics import ServingMetrics

__all__ = [
    "FleetConfig",
    "FleetDispatcher",
    "SessionRequest",
    "SessionOutcome",
    "run_fleet",
    "session_seed",
    "session_values",
]


def session_seed(seed: str | None, session: int) -> str | None:
    """Root seed for one session of a multi-session run: ``{seed}/s{s}``,
    so session *s* is reproducible solo via
    ``Session(query, rng=SeededRNG(session_seed(seed, s)))``."""
    return None if seed is None else f"{seed}/s{session}"


def session_values(values: list, session: int) -> list:
    """Distinct-but-derived per-session populations for demos/benchmarks:
    session *s* sees the shared values rotated by *s*."""
    shift = session % len(values) if values else 0
    return values[shift:] + values[:shift]


@dataclass
class FleetConfig:
    """The declarative fleet deployment.

    ``frontends`` front-end worker processes, each serving up to
    ``capacity`` concurrent sessions.  The remaining knobs are the
    familiar serving parameters, applied uniformly across the pool.
    """

    frontends: int = 2
    capacity: int = 2
    num_servers: int = 2
    group: str = "p64-sim"
    nb_override: int | None = 64
    chunk_size: int | None = None
    host: str = "127.0.0.1"
    timeout: float = 60.0
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.frontends < 1:
            raise ParameterError("frontends must be >= 1")
        if self.capacity < 1:
            raise ParameterError("capacity must be >= 1")
        if self.num_servers < 1:
            raise ParameterError("num_servers must be >= 1")
        if self.max_restarts < 0:
            raise ParameterError("max_restarts must be >= 0")

    @classmethod
    def from_file(cls, path: str) -> "FleetConfig":
        """Load a config from a JSON object file; unknown keys and values of
        the wrong JSON type are errors (a typo silently ignored is a
        deployment mis-sized silently)."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ParameterError("fleet config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(f"unknown fleet config keys: {unknown}")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            allowed = typing.get_args(hints[key]) or (hints[key],)
            if float in allowed:
                allowed += (int,)  # a timeout of 30 means 30.0
            # bool is an int subclass, but true is never a size or a timeout.
            if isinstance(value, bool) or not isinstance(value, allowed):
                names = " or ".join(
                    "null" if kind is type(None) else kind.__name__ for kind in allowed
                )
                raise ParameterError(f"fleet config {key!r} must be {names}, got {value!r}")
        return cls(**data)


@dataclass
class SessionRequest:
    """One admitted unit of work: a full protocol session.

    ``seed`` is the session's root seed (``None`` = system randomness,
    which also disables byte-identity verification for it).
    """

    request_id: int
    query: Query
    values: list
    seed: str | None = None


@dataclass
class SessionOutcome:
    """How one admitted session ended.

    ``status`` is ``"released"`` (the release is in ``release_frame``),
    ``"aborted"`` (the protocol rejected it; ``party``/``reason`` carry
    the attribution) or ``"crashed"`` (infrastructure died under it —
    e.g. its front-end process was killed; attributed to that worker,
    never left hanging).  ``frontend`` is ``None`` for a session that
    was never placed: every front-end was gone while it waited.
    """

    request_id: int
    frontend: str | None
    status: str
    accepted: bool = False
    estimate: tuple = ()
    release_frame: bytes | None = None
    elapsed_s: float | None = None
    party: str | None = None
    reason: str | None = None


# Dispatcher -------------------------------------------------------------------


def _load_before_fork(config: FleetConfig) -> None:
    """Do in the dispatcher what would otherwise make a front-end import
    modules on its first session, after the fork (DESIGN.md "Cold
    start"): resolve the group and decode one element, which loads its
    native membership test (``ctypes`` and ``crypto.gmp`` on a Schnorr
    group), and look up the peers' address once, which loads the host
    name's codec (``encodings.idna``).  An unknown group fails here, as
    a usage error, before any worker starts."""
    from repro.core.params import _resolve_group
    from repro.net.transport import resolve

    group = _resolve_group(config.group)
    group.from_bytes(group.generator().to_bytes())
    resolve(config.host, 0)


# The monitor's wait on its pipes and sentinels times out only so that it
# notices ``stop``; every outcome and exit wakes it at once.
_MONITOR_WAIT = 0.25


class _Worker:
    """Dispatcher-side record of one front-end process."""

    def __init__(self, name, slot, process, conn):
        self.name = name
        self.slot = slot  # index in the pool; a respawn keeps it
        self.process = process
        self.conn = conn
        # request_id -> SessionRequest: everything placed here that has
        # no outcome yet, never more than ``capacity`` requests.
        self.placed: dict[int, SessionRequest] = {}
        self.dead = False
        # Told to stop once idle during a drain: its exit is clean.
        self.retiring = False

    @property
    def load(self) -> int:
        return len(self.placed)

    def send(self, command: dict) -> None:
        try:
            self.conn.send(command)
        except (OSError, ValueError, BrokenPipeError):
            pass  # the sentinel path re-attributes whatever was placed


class FleetDispatcher:
    """The admission point: queues sessions, places them, never hangs.

    ``submit`` admits a :class:`SessionRequest` into one FIFO queue, and
    the dispatcher places the head of that queue on the least-loaded
    live front-end with a free slot whenever one has.  Outcomes
    accumulate in :attr:`outcomes` (keyed by request id) and
    :meth:`wait` blocks until every admitted request has one.  The
    no-hang invariant: every admitted request is either queued or in
    exactly one worker's ``placed`` until its outcome is recorded.  A
    monitor thread collects outcomes, re-attributes crashes and
    restarts workers.  Use as a context manager, or pair :meth:`start`
    with :meth:`stop`.
    """

    # Nothing is re-placed once placed; kept for the benchmark's
    # ``net.fleet.stolen`` line, which reads it.
    stolen = 0

    def __init__(
        self,
        config: FleetConfig,
        *,
        metrics: ServingMetrics | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        from multiprocessing import get_context

        # Forked, never spawned: a worker inherits the modules and the
        # resolved group the dispatcher loaded (_load_before_fork).
        self._context = get_context("fork")
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.workers: dict[str, _Worker] = {}
        self.outcomes: dict[int, SessionOutcome] = {}
        self.restarts: dict[str, int] = {}
        self._submitted: set[int] = set()
        self._queue: deque[SessionRequest] = deque()
        self._draining = False
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    # Lifecycle --------------------------------------------------------------

    def start(self) -> "FleetDispatcher":
        _load_before_fork(self.config)
        with self._lock:
            for i in range(self.config.frontends):
                self._spawn(f"fe-{i}", i)
        self._thread = threading.Thread(
            target=self._run, name="fleet-dispatcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Terminate everything still running (no grace — use
        :meth:`drain` first for a graceful exit).  A session still placed
        or queued gets a ``crashed`` outcome, "dispatcher stopped", naming
        the front-end it was placed on (``None`` if it was queued)."""
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._cond:
            # No outcome is collected past this point: every session still
            # placed or queued ends here, so that no ``wait`` outlasts stop.
            for worker in self.workers.values():
                for request_id in worker.placed:
                    self._crash(request_id, worker.name, "dispatcher stopped")
                worker.placed.clear()
            while self._queue:
                request = self._queue.popleft()
                self._crash(request.request_id, None, "dispatcher stopped")
            self._dispatch()  # the gauges now read nothing queued or placed
            self._cond.notify_all()
            workers = list(self.workers.values())
        for worker in workers:
            if worker.process.is_alive():
                worker.send({"cmd": "stop"})
        for worker in workers:
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "FleetDispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self, name: str, slot: int) -> _Worker:
        # Imported here, before the fork: the worker inherits its command
        # loop and serving path instead of compiling them (DESIGN.md
        # "Cold start").
        from repro.net.frontend import frontend_main

        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=frontend_main,
            args=(name, child_conn, self.config, slot),
            name=name,
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(name, slot, process, parent_conn)
        self.workers[name] = worker
        return worker

    # Admission and placement ------------------------------------------------

    def submit(self, request: SessionRequest) -> None:
        """Admit one session into the queue; it is placed as soon as a
        live front-end has a free slot."""
        with self._lock:
            self._admit(request)
            self._queue.append(request)
            self._dispatch()

    def place(self, request: SessionRequest, frontend: str) -> None:
        """Pin one session into a free slot of a named front-end (tests
        and demos; the normal path is :meth:`submit`)."""
        with self._lock:
            worker = self.workers.get(frontend)
            if worker is None or worker.dead or worker.retiring:
                raise ParameterError(f"no live front-end named {frontend!r}")
            if worker.load >= self.config.capacity:
                raise ParameterError(
                    f"front-end {frontend!r} is full: "
                    f"{self.config.capacity} sessions placed"
                )
            self._admit(request)
            self._place(worker, request)
            self._dispatch()

    def _admit(self, request: SessionRequest) -> None:
        if self._draining:
            raise ParameterError("fleet is draining; not admitting new sessions")
        if request.request_id in self._submitted:
            raise ParameterError(f"request id {request.request_id} already admitted")
        self._submitted.add(request.request_id)
        if self.metrics is not None:
            self.metrics.session_admitted()

    def _place(self, worker: _Worker, request: SessionRequest) -> None:
        worker.placed[request.request_id] = request
        worker.send({"cmd": "place", "request": request})

    def _dispatch(self) -> None:
        """Place queued requests, oldest first, each on the least-loaded
        live front-end with a free slot.  With no front-end left, every
        queued request crashes; once draining with nothing queued, each
        idle front-end is told to stop.  Runs after every admission,
        outcome, exit and respawn, with the lock held."""
        live = [w for w in self.workers.values() if not w.dead and not w.retiring]
        while self._queue:
            free = [w for w in live if w.load < self.config.capacity]
            if not free:
                break
            worker = min(free, key=lambda w: (w.load, w.name))
            self._place(worker, self._queue.popleft())
        if not live:
            reason = "no live front-end left to serve the session"
            while self._queue:
                self._crash(self._queue.popleft().request_id, None, reason)
        if self._draining and not self._queue:
            for worker in live:
                if not worker.placed:
                    worker.retiring = True
                    worker.send({"cmd": "stop"})
        if self.metrics is not None:
            self.metrics.queued.set(len(self._queue))
            for worker in self.workers.values():
                self.metrics.frontend_in_flight.set(worker.load, frontend=worker.name)

    # Waiting ----------------------------------------------------------------

    def wait(self, request_ids=None, timeout: float = 120.0) -> bool:
        """Block until every named (default: every admitted) request has
        an outcome; False on timeout."""
        wanted = None if request_ids is None else list(request_ids)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if wanted is None:
                    # Outcome keys are a subset of the admitted ids.
                    done = len(self.outcomes) == len(self._submitted)
                else:
                    done = all(request_id in self.outcomes for request_id in wanted)
                if done:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.25))

    def drain(self, timeout: float = 120.0) -> bool:
        """Graceful shutdown: stop admitting, serve every queued and
        placed session, and stop each front-end once it is idle.
        Returns True once every worker exited (False on timeout; ``stop``
        still cleans up)."""
        with self._lock:
            self._draining = True
            self._dispatch()
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if all(w.dead for w in self.workers.values()):
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.25))

    # Monitor thread ---------------------------------------------------------

    def _run(self) -> None:
        from multiprocessing import connection

        while not self._stopped.is_set():
            with self._lock:
                live = [w for w in self.workers.values() if not w.dead]
                by_conn = {w.conn: w for w in live}
                by_sentinel = {w.process.sentinel: w for w in live}
            handles = list(by_conn) + list(by_sentinel)
            if not handles:
                self._stopped.wait(_MONITOR_WAIT)
                continue
            try:
                ready = connection.wait(handles, timeout=_MONITOR_WAIT)
            except OSError:  # pragma: no cover - handle closed under us
                ready = []
            with self._lock:
                for handle in ready:
                    worker = by_conn.get(handle)
                    if worker is not None and not worker.dead:
                        self._collect_outcomes(worker)
                for handle in ready:
                    worker = by_sentinel.get(handle)
                    if worker is not None and not worker.dead:
                        # Record the outcomes the worker managed to send
                        # before exiting, then classify the exit.
                        self._collect_outcomes(worker)
                        self._handle_exit(worker)
                self._dispatch()
                self._cond.notify_all()

    def _collect_outcomes(self, worker: _Worker) -> None:
        """Record every ``(outcome, stages)`` pair the worker has sent."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                outcome, stages = worker.conn.recv()
            except (EOFError, OSError):
                return
            worker.placed.pop(outcome.request_id, None)
            self._record_outcome(outcome, stages)

    def _record_outcome(
        self, outcome: SessionOutcome, stages: dict | None = None
    ) -> None:
        """The single funnel every outcome passes through: stores it and
        keeps the metrics ledger balanced (one admitted -> exactly one
        finished, so in-flight returns to zero after a drain)."""
        self.outcomes[outcome.request_id] = outcome
        if self.metrics is not None:
            self.metrics.session_finished(
                outcome.status, stages=stages, elapsed_s=outcome.elapsed_s
            )

    def _crash(self, request_id, frontend, reason, party=None) -> None:
        """Record a ``crashed`` outcome: infrastructure, not the protocol."""
        self._record_outcome(
            SessionOutcome(request_id, frontend, "crashed", party=party, reason=reason)
        )

    def _handle_exit(self, worker: _Worker) -> None:
        worker.dead = True
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        # A crash costs exactly the sessions placed here; queued ones
        # wait for another front-end or for this one's respawn.
        for request_id in worker.placed:
            reason = "front-end crashed with the session in flight"
            self._crash(request_id, worker.name, reason, party=worker.name)
        worker.placed.clear()
        if self._draining and not self._queue:
            return  # nothing left for a respawn to serve
        count = self.restarts.get(worker.name, 0)
        if count >= self.config.max_restarts:
            return
        self.restarts[worker.name] = count + 1
        if self.metrics is not None:
            self.metrics.restarts.inc(frontend=worker.name)
        self._spawn(worker.name, worker.slot)


# Driver -----------------------------------------------------------------------


def run_fleet(
    query: Query,
    values,
    *,
    sessions: int = 4,
    config: FleetConfig | None = None,
    seed: str | None = "fleet",
    verify_equivalence: bool | None = None,
    metrics: ServingMetrics | None = None,
) -> dict:
    """Serve ``sessions`` sessions through the fleet ``config`` describes
    (default: ``FleetConfig()``); returns a metrics dict.

    Session *s* runs under seed ``{seed}/s{s}`` with the shared values
    rotated by *s* (:func:`session_seed`, :func:`session_values`), and
    ``verify_equivalence`` (default: on whenever seeded) replays every
    released session through a solo in-process :class:`Session` at the
    outcome's effective chunk size and compares the wire-encoded
    releases byte for byte.
    """
    from repro.net.roles import solo_release_bytes

    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    if config is None:
        config = FleetConfig()
    values = list(values)
    if verify_equivalence is None:
        verify_equivalence = seed is not None
    requests = [
        SessionRequest(
            s, query, session_values(values, s), seed=session_seed(seed, s)
        )
        for s in range(sessions)
    ]

    dispatcher = FleetDispatcher(config, metrics=metrics)
    start = time.perf_counter()
    try:
        dispatcher.start()
        for request in requests:
            dispatcher.submit(request)
        finished = dispatcher.wait(timeout=config.timeout + 30.0)
        elapsed = time.perf_counter() - start
        drained = dispatcher.drain(timeout=config.timeout)
    finally:
        dispatcher.stop()

    session_rows = []
    for request in requests:
        outcome = dispatcher.outcomes.get(request.request_id)
        if outcome is None:
            session_rows.append(
                {
                    "session": request.request_id,
                    "status": "lost",
                    "frontend": None,
                    "reason": "no outcome before the wait deadline",
                }
            )
            continue
        row = {
            "session": request.request_id,
            "status": outcome.status,
            "frontend": outcome.frontend,
        }
        if outcome.status == "released":
            row.update(
                accepted=outcome.accepted,
                estimate=outcome.estimate,
                elapsed_s=outcome.elapsed_s,
                release_bytes=len(outcome.release_frame),
            )
            if verify_equivalence and request.seed is not None:
                row["byte_identical"] = outcome.release_frame == solo_release_bytes(
                    request.query,
                    request.values,
                    seed=request.seed,
                    num_servers=config.num_servers,
                    group=config.group,
                    nb_override=config.nb_override,
                    chunk_size=config.chunk_size,
                )
        else:
            row.update(party=outcome.party, reason=outcome.reason)
        session_rows.append(row)

    released_rows = [r for r in session_rows if r["status"] == "released"]
    params = query.build_params(
        num_provers=config.num_servers, group=config.group,
        nb_override=config.nb_override,
    )
    outcome_dict = {
        "transport": "fleet",
        "frontends": config.frontends,
        "capacity": config.capacity,
        "sessions": sessions,
        "num_servers": config.num_servers,
        "n_clients": len(values),
        "nb": params.nb,
        "group": config.group,
        "chunk_size": config.chunk_size,
        "elapsed_s": elapsed,
        "sessions_per_sec": len(released_rows) / elapsed if elapsed else float("inf"),
        "released": len(released_rows),
        "aborted": sum(1 for r in session_rows if r["status"] == "aborted"),
        "crashed": sum(1 for r in session_rows if r["status"] == "crashed"),
        "finished": finished,
        "drained": drained,
        "restarts": dict(dispatcher.restarts),
        "frontends_used": sorted(
            {r["frontend"] for r in session_rows if r["frontend"] is not None}
        ),
        "accepted": bool(released_rows)
        and all(r["accepted"] for r in released_rows),
        "session_rows": session_rows,
    }
    if verify_equivalence:
        outcome_dict["byte_identical"] = bool(released_rows) and all(
            r.get("byte_identical", False) for r in released_rows
        )
    return outcome_dict
