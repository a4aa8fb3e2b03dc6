"""A fleet front-end: one worker process of a :class:`~repro.net.fleet.FleetDispatcher`.

Each worker runs one :class:`~repro.net.aio.SessionMux` under asyncio and
binds it to the dispatcher's command pipe.  It is the fleet's only
asyncio code, so it lives apart from the dispatcher, which imports it
before it forks a worker: the worker inherits the loaded modules and
compiles nothing (DESIGN.md "Cold start").
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque

from repro.crypto.serialization import encode_message
from repro.errors import ProtocolAbort, ReproError
from repro.net import wire
from repro.net.aio import AsyncSocketTransport, SessionMux, SessionSpec
from repro.net.fleet import FleetConfig, SessionRequest
from repro.net.roles import dial, peer_roles, role_names, root_rng, run_role

__all__ = ["frontend_main"]


def _cpu_share(cpus: list[int], slot: int) -> list[int]:
    """The one CPU of ``cpus`` that pool slot ``slot`` runs on: each
    front-end gets its own while there are enough, and past that the CPUs
    are dealt round-robin, one each."""
    return [cpus[slot % len(cpus)]]


def frontend_main(name: str, conn, config: FleetConfig, slot: int) -> None:
    """Worker process entry: run one front-end until told to stop."""
    # A front-end is one GIL shared by a dozen threads that wake each
    # other once per frame.  Left to float, those threads hand the GIL
    # across cores — a lone front-end's as much as two front-ends' that
    # keep landing on each other's core — so served time depends on where
    # the kernel last put them (DESIGN.md, "A front-end keeps to one
    # CPU").  Each front-end therefore confines itself to one of the CPUs
    # the dispatcher may use; a platform without the call is left to its
    # scheduler.
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, _cpu_share(cpus, slot))
    try:
        asyncio.run(_FrontEnd(name, conn, config).run())
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass


class _FrontEnd:
    """One fleet worker: a :class:`SessionMux` plus the command loop that
    binds it to the dispatcher's pipe.

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
        self.roles = peer_roles(config.num_servers, 0)
        self.server_names = role_names(self.roles, "server")
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
            )
            result = await self.mux.serve_session(sid, spec)
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
            self.completed += 1
            self._send(
                {
                    "event": "released",
                    "frontend": self.name,
                    "request_id": request.request_id,
                    "accepted": result.release.accepted,
                    "estimate": tuple(result.release.estimate),
                    "release": encode_message(result.release),
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
            reply_delay=request.reply_delay,
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
