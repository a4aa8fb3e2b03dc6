"""A dispatcher-orchestrated serving fleet: many front-ends, one admission point.

One :class:`~repro.net.aio.SessionMux` front-end overlaps N sessions'
idle time inside a single process (PR 5); one
:class:`~repro.net.shard.ShardedAnalyst` fans a single session's
verification across S workers (PR 4).  Neither scales past one
front-end process — the ROADMAP's top open item.  This module composes
them into a *fleet*:

* :class:`FleetConfig` — the declarative deployment: pool size,
  per-front-end session capacity, shard count per front-end, protocol
  knobs.  Loadable from a JSON file (``repro serve --fleet
  --fleet-config fleet.json``).
* :class:`FleetDispatcher` — the admission point.  Spawns one
  front-end worker process per pool slot, each running a *dynamic*
  ``SessionMux`` (sessions placed one at a time, up to ``capacity``
  concurrent).  A monitor thread multiplexes every worker's command
  pipe and process sentinel: it collects outcomes, polls per-worker
  liveness/stats on a health interval, steals queued sessions from a
  hot front-end into an idle one, re-attributes a crashed worker's
  in-flight sessions as *crashed* outcomes (never hangs), and respawns
  the worker up to ``max_restarts`` times.
* :func:`run_fleet` — the ``repro serve --fleet`` driver: submit a
  stream of session requests, wait, drain (stop admitting, finish
  in-flight, terminate), and verify the cross-cutting invariant —
  every fleet-served release is byte-identical to a seeded in-process
  :class:`repro.api.Session` run with the same seed and chunking.

Inside each worker a placed session gets its own *scoped* peer threads
— K :class:`~repro.net.nodes.ServerNode`, S
:class:`~repro.net.shard.ShardWorker` (the long-promised ``--async
--shards`` composition) and one :class:`~repro.net.nodes.ClientRunner`
— dialing back over blocking ``SocketTransport.connect(...,
session=s)`` channels, which the mux's async listener demultiplexes by
handshake scope.  In a real deployment those peers are remote
processes; session-scoped threads keep the fleet demo single-machine
while exercising exactly the wire paths remote peers would.

Failure semantics reuse PR 5's attribution machinery: a session that
dies mid-phase has its peers told to stop via the one-way ``abort``
control (:func:`repro.net.nodes.abort_peers` semantics) instead of
being left to time out, and the outcome names the party.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context

from repro.api.queries import Query
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort, ReproError
from repro.net import wire
from repro.net.aio import AsyncSocketTransport, SessionMux, SessionSpec
from repro.net.metrics import ServingMetrics
from repro.net.roles import (
    dial,
    peer_roles,
    role_names,
    root_rng,
    run_role,
    solo_release_bytes,
)

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

    ``frontends`` front-end worker processes, each multiplexing up to
    ``capacity`` concurrent sessions; ``shards > 0`` backs every session
    with that many :class:`ShardWorker` peers (the ``--async --shards``
    composition).  The remaining knobs are the familiar serving
    parameters, applied uniformly across the pool.
    """

    frontends: int = 2
    capacity: int = 2
    shards: int = 0
    num_servers: int = 2
    group: str = "p64-sim"
    nb_override: int | None = 64
    chunk_size: int | None = None
    host: str = "127.0.0.1"
    timeout: float = 60.0
    health_interval: float = 0.25
    max_restarts: int = 2
    reply_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.frontends < 1:
            raise ParameterError("frontends must be >= 1")
        if self.capacity < 1:
            raise ParameterError("capacity must be >= 1")
        if self.shards < 0:
            raise ParameterError("shards must be >= 0 (0 = unsharded sessions)")
        if self.num_servers < 1:
            raise ParameterError("num_servers must be >= 1")
        if self.max_restarts < 0:
            raise ParameterError("max_restarts must be >= 0")
        if self.health_interval <= 0:
            raise ParameterError("health_interval must be > 0")

    @classmethod
    def from_file(cls, path: str) -> "FleetConfig":
        """Load a config from a JSON object file; unknown keys are errors
        (a typo silently ignored is a deployment mis-sized silently)."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ParameterError("fleet config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(f"unknown fleet config keys: {unknown}")
        return cls(**data)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SessionRequest:
    """One admitted unit of work: a full protocol session.

    ``seed`` is the session's root seed (``None`` = system randomness,
    which also disables byte-identity verification for it);
    ``reply_delay`` overrides the fleet-wide simulated prover latency
    for this session (benchmark/test knob).
    """

    request_id: int
    query: Query
    values: list
    seed: str | None = None
    reply_delay: float | None = None


@dataclass
class SessionOutcome:
    """How one admitted session ended.

    ``status`` is ``"released"`` (the release is in ``release_frame``),
    ``"aborted"`` (the protocol rejected it; ``party``/``reason`` carry
    the attribution) or ``"crashed"`` (infrastructure died under it —
    e.g. its front-end process was killed; attributed to that worker,
    never left hanging).
    """

    request_id: int
    frontend: str
    status: str
    accepted: bool = False
    estimate: tuple = ()
    release_frame: bytes | None = None
    chunk_size: int | None = None
    elapsed_s: float | None = None
    party: str | None = None
    reason: str | None = None


# Front-end worker process -----------------------------------------------------


def _cpu_share(cpus: list[int], slot: int, frontends: int) -> list[int]:
    """The CPUs of ``cpus`` that pool slot ``slot`` of ``frontends`` runs
    on: the CPUs dealt round the front-ends — disjoint shares while there
    are at least as many CPUs as front-ends (one front-end keeps them
    all), one CPU each, reused round-robin, beyond that."""
    return cpus[slot % len(cpus) :: frontends]


def _frontend_main(name: str, conn, config: FleetConfig, slot: int) -> None:
    """Worker process entry: run one front-end until told to stop."""
    # A front-end is one GIL shared by a dozen threads that wake each
    # other once per frame.  Left to float, the threads of two busy
    # front-ends keep landing on each other's core — both run on one CPU
    # for a second at a time while another idles — so served time
    # depends on where the kernel last put them (DESIGN.md, "A front-end
    # keeps to its CPUs").  Each front-end therefore confines itself to
    # its share of the CPUs the dispatcher may use; a platform without
    # the call is left to its scheduler.
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, _cpu_share(cpus, slot, config.frontends))
    try:
        asyncio.run(_FrontEnd(name, conn, config).run())
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass


class _FrontEnd:
    """One fleet worker: a dynamic :class:`SessionMux` plus the command
    loop that binds it to the dispatcher's pipe.

    Commands in: ``place`` (a :class:`SessionRequest`), ``steal`` (give
    back queued-but-unstarted requests), ``ping`` (report stats),
    ``drain`` (finish everything, then exit), ``stop`` (exit now).
    Events out: ``released`` / ``aborted`` / ``failed`` per session,
    ``stats`` per ping, ``stolen`` per steal, ``drained`` once idle
    after a drain.
    """

    def __init__(self, name: str, conn, config: FleetConfig) -> None:
        self.name = name
        self.conn = conn
        self.config = config
        self.roles = peer_roles(config.num_servers, config.shards)
        self.server_names = role_names(self.roles, "server")
        self.shard_names = tuple(role_names(self.roles, "shard"))
        self.pending: deque[SessionRequest] = deque()
        self.inflight: dict[int, asyncio.Task] = {}
        self.completed = 0
        self.aborted = 0
        self.draining = False
        self._next_session = 0
        self._commands: asyncio.Queue | None = None
        self.transport: AsyncSocketTransport | None = None
        self.mux: SessionMux | None = None
        self._accept_lock: asyncio.Lock | None = None

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self._commands = asyncio.Queue()
        self._accept_lock = asyncio.Lock()
        self.transport = await AsyncSocketTransport.listen("analyst", self.config.host)
        # The listener stays open for the worker's whole life (sessions
        # arrive dynamically), so it cannot lock down; the standing
        # empty filter drops every handshake that no placement is
        # expecting right now.
        self.transport.default_expected = []
        self.mux = SessionMux(
            None,
            self.transport,
            self.server_names,
            timeout=self.config.timeout,
            max_concurrency=self.config.capacity,
        )
        reader = threading.Thread(
            target=self._read_commands, args=(loop,), daemon=True
        )
        reader.start()
        try:
            while True:
                command = await self._commands.get()
                cmd = command.get("cmd")
                if cmd == "place":
                    self.pending.append(command["request"])
                    self._pump()
                elif cmd == "steal":
                    self._steal(int(command.get("count", 1)))
                elif cmd == "ping":
                    self._send_stats()
                elif cmd == "drain":
                    self.draining = True
                    self._pump()
                    self._maybe_drained()
                elif cmd in ("stop", "_exit"):
                    break
        finally:
            for task in list(self.inflight.values()):
                task.cancel()
            if self.inflight:
                await asyncio.gather(
                    *self.inflight.values(), return_exceptions=True
                )
            self.mux.close()
            await self.transport.aclose()

    def _read_commands(self, loop) -> None:
        """Pipe → asyncio queue bridge (runs on its own thread)."""
        while True:
            try:
                command = self.conn.recv()
            except (EOFError, OSError):
                # Dispatcher gone: treat as stop so the worker exits
                # instead of serving headless forever.
                command = {"cmd": "stop"}
            try:
                loop.call_soon_threadsafe(self._commands.put_nowait, command)
            except RuntimeError:  # loop already closed
                return
            if command.get("cmd") == "stop":
                return

    def _send(self, event: dict) -> None:
        try:
            self.conn.send(event)
        except (OSError, ValueError, BrokenPipeError):
            pass  # dispatcher gone; the stop path will follow

    def _send_stats(self) -> None:
        self._send(
            {
                "event": "stats",
                "frontend": self.name,
                "in_flight": len(self.inflight),
                "pending": len(self.pending),
                "completed": self.completed,
                "aborted": self.aborted,
            }
        )

    def _steal(self, count: int) -> None:
        # Give back the newest queued requests (the oldest are closest
        # to a free slot here); an empty list is a valid answer and
        # clears the dispatcher's outstanding-steal flag.
        taken = []
        while self.pending and len(taken) < count:
            taken.append(self.pending.pop())
        self._send({"event": "stolen", "frontend": self.name, "requests": taken})
        self._maybe_drained()

    def _pump(self) -> None:
        while self.pending and len(self.inflight) < self.config.capacity:
            request = self.pending.popleft()
            task = asyncio.ensure_future(self._serve(request))
            self.inflight[request.request_id] = task
            task.add_done_callback(
                lambda t, rid=request.request_id: self._finished(rid, t)
            )

    def _finished(self, request_id: int, task: asyncio.Task) -> None:
        self.inflight.pop(request_id, None)
        if not task.cancelled():
            task.exception()  # consumed: _serve reported the outcome itself
        self._pump()
        self._maybe_drained()

    def _maybe_drained(self) -> None:
        if self.draining and not self.inflight and not self.pending:
            self._send({"event": "drained", "frontend": self.name})
            self._commands.put_nowait({"cmd": "_exit"})

    async def _serve(self, request: SessionRequest) -> None:
        sid = self._next_session
        self._next_session += 1
        start = time.perf_counter()
        threads: list[threading.Thread] = []
        try:
            # Serialize placements through the accept: scoped peers of
            # one session must all handshake under this session's pins
            # before the next placement arms different ones.  The
            # standing filter mirrors the pins from the moment the peer
            # threads exist, so a handshake racing ahead of accept() is
            # admitted, not dropped.
            async with self._accept_lock:
                pins = [(name, sid) for _, name in self.roles]
                self.transport.default_expected = pins
                try:
                    threads = self._start_peers(request, sid)
                    await self.transport.accept(
                        len(pins), self.config.timeout, expected=pins
                    )
                finally:
                    self.transport.default_expected = []
            spec = SessionSpec(
                request.query,
                rng=root_rng(request.seed),
                group=self.config.group,
                nb_override=self.config.nb_override,
                chunk_size=self.config.chunk_size,
                shards=self.shard_names,
            )
            served = await self.mux.serve_session(sid, spec)
        except ProtocolAbort as exc:
            await self._abort_session_peers(sid, str(exc))
            self.aborted += 1
            self._send(
                {
                    "event": "aborted",
                    "frontend": self.name,
                    "request_id": request.request_id,
                    "party": exc.party,
                    "reason": str(exc),
                }
            )
        except asyncio.CancelledError:
            await self._abort_session_peers(sid, "front-end stopping")
            raise
        except Exception as exc:  # repro: allow[REP004] -- supervisor boundary: any unexpected failure becomes an attributed 'failed' event and the session's peers are aborted, never a hang
            await self._abort_session_peers(sid, f"front-end failure: {exc}")
            self.aborted += 1
            self._send(
                {
                    "event": "failed",
                    "frontend": self.name,
                    "request_id": request.request_id,
                    "reason": f"{type(exc).__name__}: {exc}",
                }
            )
        else:
            result = served.result
            self.completed += 1
            self._send(
                {
                    "event": "released",
                    "frontend": self.name,
                    "request_id": request.request_id,
                    "accepted": result.release.accepted,
                    "estimate": tuple(result.release.estimate),
                    "release": encode_message(result.release),
                    # The chunk size the session ran at, so the solo
                    # replay equivalence check can use the same.
                    "chunk_size": served.chunk_size,
                    "elapsed_s": time.perf_counter() - start,
                    # Engine stage timings (including the per-phase
                    # ``phase:*`` entries) travel with the outcome so the
                    # dispatcher's /metrics histograms see work done in
                    # worker processes.
                    "stages": dict(result.timer.stages),
                }
            )
        finally:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._join_peers, threads)
            await self.transport.release_session(sid)

    def _start_peers(self, request: SessionRequest, sid: int) -> list:
        """One session-scoped thread per peer, each dialling back in."""
        host, port, timeout = self.config.host, self.transport.port, self.config.timeout
        options = dict(
            seed=request.seed,
            query=request.query,
            values=list(request.values),
            timeout=timeout,
            reply_delay=(
                request.reply_delay
                if request.reply_delay is not None
                else self.config.reply_delay
            ),
        )
        threads = [
            threading.Thread(
                target=run_role,
                args=(role, name, dial(name, host, port, session=sid, timeout=timeout)),
                kwargs=options,
                name=f"{self.name}-{name}-s{sid}",
                daemon=True,
            )
            for role, name in self.roles
        ]
        for thread in threads:
            thread.start()
        return threads

    async def _abort_session_peers(self, sid: int, reason: str) -> None:
        """Session-scoped :func:`~repro.net.nodes.abort_peers`: tell every
        peer of the dead session to stop waiting, best-effort."""
        frame = wire.encode_control("abort", reason.encode())
        for _, name in self.roles:
            try:
                await self.transport.send(name, frame, session=sid)
            except (ReproError, OSError):
                pass

    def _join_peers(self, threads: list) -> None:
        for thread in threads:
            thread.join(timeout=5.0)


# Dispatcher -------------------------------------------------------------------


class _Worker:
    """Dispatcher-side record of one front-end process."""

    def __init__(self, name, slot, process, conn):
        self.name = name
        self.slot = slot  # index in the pool; a respawn keeps it
        self.process = process
        self.conn = conn
        # request_id -> SessionRequest: everything placed here that has
        # no outcome yet.  The no-hang invariant rests on this map:
        # every admitted request lives in exactly one worker's `placed`
        # until its outcome is recorded.
        self.placed: dict[int, SessionRequest] = {}
        self.stats = {"in_flight": 0, "pending": 0, "completed": 0, "aborted": 0}
        self.draining = False
        self.drained = False
        self.dead = False
        self.steal_outstanding = False

    @property
    def load(self) -> int:
        return len(self.placed)

    def send(self, command: dict) -> None:
        try:
            self.conn.send(command)
        except (OSError, ValueError, BrokenPipeError):
            pass  # the sentinel path re-attributes whatever was placed


class FleetDispatcher:
    """The admission point: places sessions, watches workers, never hangs.

    ``submit`` admits a :class:`SessionRequest` onto the least-loaded
    live front-end; outcomes accumulate in :attr:`outcomes` (keyed by
    request id) and :meth:`wait` blocks until every admitted request has
    one.  A monitor thread drives health pings, work-stealing, crash
    re-attribution and restarts.  Use as a context manager, or pair
    :meth:`start` with :meth:`stop`.
    """

    def __init__(
        self,
        config: FleetConfig,
        *,
        start_method: str = "fork",
        metrics: ServingMetrics | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self._context = get_context(start_method)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.workers: dict[str, _Worker] = {}
        self.outcomes: dict[int, SessionOutcome] = {}
        self.restarts: dict[str, int] = {}
        self.stolen = 0
        self._submitted: set[int] = set()
        self._draining = False
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    # Lifecycle --------------------------------------------------------------

    def start(self) -> "FleetDispatcher":
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
        :meth:`drain` first for a graceful exit)."""
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
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
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_frontend_main,
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

    def submit(self, request: SessionRequest) -> str:
        """Admit one session onto the least-loaded live front-end;
        returns the chosen front-end's name."""
        with self._lock:
            if self._draining:
                raise ParameterError("fleet is draining; not admitting new sessions")
            if request.request_id in self._submitted:
                raise ParameterError(
                    f"request id {request.request_id} already admitted"
                )
            worker = self._placement_target()
            if worker is None:
                raise ProtocolAbort("no live front-end to place the session on")  # repro: allow[REP004] -- infrastructure exhaustion, not party misbehaviour; there is no protocol party to name
            self._place(worker, request)
            if self.metrics is not None:
                self.metrics.session_admitted()
            return worker.name

    def place(self, request: SessionRequest, frontend: str) -> None:
        """Pin one session onto a named front-end (tests and demos; the
        normal path is :meth:`submit`)."""
        with self._lock:
            worker = self.workers.get(frontend)
            if worker is None or worker.dead:
                raise ParameterError(f"no live front-end named {frontend!r}")
            self._place(worker, request)
            if self.metrics is not None:
                self.metrics.session_admitted()

    def _placement_target(self, exclude=()) -> _Worker | None:
        live = [
            w
            for w in self.workers.values()
            if not w.dead and not w.draining and w.name not in exclude
        ]
        if not live:
            return None
        return min(live, key=lambda w: (w.load, w.name))

    def _place(self, worker: _Worker, request: SessionRequest) -> None:
        worker.placed[request.request_id] = request
        self._submitted.add(request.request_id)
        worker.send({"cmd": "place", "request": request})

    # Waiting ----------------------------------------------------------------

    def wait(self, request_ids=None, timeout: float = 120.0) -> bool:
        """Block until every named (default: every admitted) request has
        an outcome; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                wanted = (
                    set(request_ids) if request_ids is not None else set(self._submitted)
                )
                if wanted <= set(self.outcomes):
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.25))

    def drain(self, timeout: float = 120.0) -> bool:
        """Graceful shutdown: stop admitting, let every front-end finish
        its pending and in-flight sessions, then reap them.  Returns
        True once every worker exited (False on timeout; ``stop`` still
        cleans up)."""
        with self._lock:
            self._draining = True
            for worker in self.workers.values():
                if not worker.dead:
                    worker.draining = True
                    worker.send({"cmd": "drain"})
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if not [w for w in self.workers.values() if not w.dead]:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.25))

    def worker_stats(self) -> dict:
        """Latest health-check stats per live front-end."""
        with self._lock:
            return {
                w.name: dict(w.stats)
                for w in self.workers.values()
                if not w.dead
            }

    # Monitor thread ---------------------------------------------------------

    def _run(self) -> None:
        last_health = 0.0
        while not self._stopped.is_set():
            with self._lock:
                live = [w for w in self.workers.values() if not w.dead]
                by_conn = {w.conn: w for w in live}
                by_sentinel = {w.process.sentinel: w for w in live}
            handles = list(by_conn) + list(by_sentinel)
            if not handles:
                self._stopped.wait(self.config.health_interval)
                continue
            try:
                ready = mp_connection.wait(handles, timeout=self.config.health_interval)
            except OSError:  # pragma: no cover - handle closed under us
                ready = []
            with self._lock:
                for handle in ready:
                    worker = by_conn.get(handle)
                    if worker is not None and not worker.dead:
                        self._drain_events(worker)
                for handle in ready:
                    worker = by_sentinel.get(handle)
                    if worker is not None and not worker.dead:
                        # Flush events the worker managed to send before
                        # exiting, then classify the exit.
                        self._drain_events(worker)
                        self._handle_exit(worker)
                now = time.monotonic()
                if now - last_health >= self.config.health_interval:
                    last_health = now
                    self._health_tick()
                self._cond.notify_all()

    def _drain_events(self, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                event = worker.conn.recv()
            except (EOFError, OSError):
                return
            self._handle_event(worker, event)

    def _record_outcome(
        self, outcome: SessionOutcome, stages: dict | None = None
    ) -> None:
        """The single funnel every outcome passes through: stores it and
        keeps the metrics ledger balanced (one admitted -> exactly one
        finished, so in-flight returns to zero after a drain)."""
        already = outcome.request_id in self.outcomes
        self.outcomes[outcome.request_id] = outcome
        if self.metrics is not None and not already:
            self.metrics.session_finished(
                outcome.status, stages=stages, elapsed_s=outcome.elapsed_s
            )

    def _handle_event(self, worker: _Worker, event: dict) -> None:
        kind = event.get("event")
        if kind in ("released", "aborted", "failed"):
            request_id = event["request_id"]
            worker.placed.pop(request_id, None)
            if kind == "released":
                outcome = SessionOutcome(
                    request_id,
                    worker.name,
                    "released",
                    accepted=event["accepted"],
                    estimate=tuple(event["estimate"]),
                    release_frame=event["release"],
                    chunk_size=event["chunk_size"],
                    elapsed_s=event["elapsed_s"],
                )
            elif kind == "aborted":
                outcome = SessionOutcome(
                    request_id,
                    worker.name,
                    "aborted",
                    party=event.get("party"),
                    reason=event.get("reason"),
                )
            else:
                outcome = SessionOutcome(
                    request_id,
                    worker.name,
                    "crashed",
                    party=worker.name,
                    reason=event.get("reason"),
                )
            self._record_outcome(outcome, stages=event.get("stages"))
        elif kind == "stats":
            worker.stats = {
                key: event[key]
                for key in ("in_flight", "pending", "completed", "aborted")
            }
            if self.metrics is not None:
                self.metrics.frontend_stats(
                    worker.name, event["in_flight"], event["pending"]
                )
        elif kind == "stolen":
            worker.steal_outstanding = False
            self._replace_stolen(worker, event.get("requests", []))
        elif kind == "drained":
            worker.drained = True

    def _replace_stolen(self, worker: _Worker, requests) -> None:
        for request in requests:
            worker.placed.pop(request.request_id, None)
            target = None
            if not self._draining:
                target = self._placement_target(exclude=(worker.name,))
            if target is None:
                # Nowhere better (or draining): hand it straight back —
                # the worker serves its own queue rather than losing it.
                target = worker if not worker.dead else self._placement_target()
            elif target is not worker:
                self.stolen += 1
                if self.metrics is not None:
                    self.metrics.stolen.inc()
            if target is None:  # pragma: no cover - whole fleet died
                self._record_outcome(
                    SessionOutcome(
                        request.request_id,
                        worker.name,
                        "crashed",
                        party=worker.name,
                        reason="no live front-end to host the stolen session",
                    )
                )
                continue
            self._place(target, request)

    def _handle_exit(self, worker: _Worker) -> None:
        worker.dead = True
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.drained and not worker.placed:
            return  # clean drain exit
        # Crash: every session placed here and not yet decided would
        # otherwise hang its caller — re-attribute now, then respawn.
        for request_id in list(worker.placed):
            self._record_outcome(
                SessionOutcome(
                    request_id,
                    worker.name,
                    "crashed",
                    party=worker.name,
                    reason="front-end crashed with the session in flight",
                )
            )
        worker.placed.clear()
        if self.metrics is not None:
            self.metrics.frontend_stats(worker.name, 0, 0)
        if self._draining:
            return
        count = self.restarts.get(worker.name, 0)
        if count >= self.config.max_restarts:
            return
        self.restarts[worker.name] = count + 1
        if self.metrics is not None:
            self.metrics.restarts.inc(frontend=worker.name)
        self._spawn(worker.name, worker.slot)

    def _health_tick(self) -> None:
        live = [w for w in self.workers.values() if not w.dead]
        for worker in live:
            worker.send({"cmd": "ping"})
        if self._draining:
            return
        # Work-stealing: a front-end with sessions *queued* behind its
        # capacity while another has free slots is mis-placed load —
        # ask the hot one to give queued requests back for re-placement.
        for worker in live:
            if worker.steal_outstanding or worker.stats["pending"] <= 0:
                continue
            best_free, target = 0, None
            for other in live:
                if other is worker or other.draining:
                    continue
                free = self.config.capacity - other.load
                if free > best_free:
                    best_free, target = free, other
            if target is not None:
                worker.steal_outstanding = True
                worker.send(
                    {"cmd": "steal", "count": min(worker.stats["pending"], best_free)}
                )


# Driver -----------------------------------------------------------------------


def run_fleet(
    query: Query,
    values,
    *,
    sessions: int = 4,
    config: FleetConfig | None = None,
    frontends: int = 2,
    capacity: int = 2,
    shards: int = 0,
    num_servers: int = 2,
    group: str = "p64-sim",
    nb_override: int | None = 64,
    chunk_size: int | None = None,
    seed: str | None = "fleet",
    host: str = "127.0.0.1",
    timeout: float = 120.0,
    reply_delay: float = 0.0,
    verify_equivalence: bool | None = None,
    metrics: ServingMetrics | None = None,
) -> dict:
    """Serve ``sessions`` sessions through a fleet; returns a metrics dict.

    Session *s* runs under seed ``{seed}/s{s}`` with the shared values
    rotated by *s* — exactly the ``--async`` driver's convention — and
    ``verify_equivalence`` (default: on whenever seeded) replays every
    released session through a solo in-process :class:`Session` at the
    outcome's effective chunk size and compares the wire-encoded
    releases byte for byte.
    """
    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    if config is None:
        config = FleetConfig(
            frontends=frontends,
            capacity=capacity,
            shards=shards,
            num_servers=num_servers,
            group=group,
            nb_override=nb_override,
            chunk_size=chunk_size,
            host=host,
            timeout=timeout,
            reply_delay=reply_delay,
        )
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
                    chunk_size=outcome.chunk_size,
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
        "shards": config.shards,
        "sessions": sessions,
        "num_servers": config.num_servers,
        "n_clients": len(values),
        "nb": params.nb,
        "group": config.group,
        "chunk_size": config.chunk_size,
        "reply_delay_s": config.reply_delay,
        "elapsed_s": elapsed,
        "sessions_per_sec": len(released_rows) / elapsed if elapsed else float("inf"),
        "released": len(released_rows),
        "aborted": sum(1 for r in session_rows if r["status"] == "aborted"),
        "crashed": sum(1 for r in session_rows if r["status"] == "crashed"),
        "finished": finished,
        "drained": drained,
        "restarts": dict(dispatcher.restarts),
        "stolen": dispatcher.stolen,
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
