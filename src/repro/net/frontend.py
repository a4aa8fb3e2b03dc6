"""A fleet front-end: one worker process of a :class:`~repro.net.fleet.FleetDispatcher`.

Each worker runs an asyncio command loop bound to the dispatcher's pipe,
and serves each placed session the way
``run_distributed_session(transport="socket")`` serves one
(:func:`repro.net.serve.session_peers`): on a thread of the worker's
session executor, with a listener of the session's own, peer threads
that dial it, and an analyst doing blocking frame I/O.  The loop places
sessions and reports outcomes; no frame crosses it.  The dispatcher
imports this module before it forks a worker: the worker inherits the
loaded modules and compiles nothing (DESIGN.md "Cold start").
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.crypto.serialization import encode_message
from repro.errors import ProtocolAbort
from repro.net.fleet import FleetConfig, SessionRequest
from repro.net.nodes import AnalystNode, abort_peers
from repro.net.roles import peer_roles, role_names, root_rng
from repro.net.serve import session_peers

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
    """One fleet worker: the command loop that binds the dispatcher's
    pipe to a session executor of ``capacity`` threads.

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
        # Sized to the capacity: a placement queued behind a full
        # executor would leave its peers blocked in their setup recv
        # until the protocol timeout.
        self._executor = ThreadPoolExecutor(
            max_workers=config.capacity, thread_name_prefix=f"{name}-session"
        )
        # Session id -> analyst transport of each session being served,
        # so that stopping can tell its peers to stop waiting.
        self._live: dict = {}

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self._commands = asyncio.Queue()
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
            # Never blocks the loop on a session thread: an aborted
            # session's thread ends once its peers have.
            self._executor.shutdown(wait=False)

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
        loop = asyncio.get_running_loop()
        try:
            event = await loop.run_in_executor(
                self._executor, self._run_session, request, sid
            )
        except asyncio.CancelledError:
            transport = self._live.get(sid)
            if transport is not None:
                names = [name for _, name in self.roles]
                abort_peers(transport, names, "front-end stopping")
            raise
        if event["event"] == "released":
            self.completed += 1
        else:
            self.aborted += 1
        self._send(event)

    def _run_session(self, request: SessionRequest, sid: int) -> dict:
        """Serve one placement on a session thread; returns its outcome
        event.  The session is the solo socket session with its peers as
        threads, on a listener bound to session ``sid``."""
        config = self.config
        start = time.perf_counter()
        outcome = {"frontend": self.name, "request_id": request.request_id}
        try:
            with session_peers(
                "socket",
                self.roles,
                request.query,
                list(request.values),
                request.seed,
                config.host,
                0,
                config.timeout,
                session=sid,
                threads=True,
                reply_delay=request.reply_delay,
            ) as transport:
                self._live[sid] = transport
                try:
                    result = AnalystNode(
                        request.query,
                        transport,
                        self.server_names,
                        group=config.group,
                        nb_override=config.nb_override,
                        chunk_size=config.chunk_size,
                        rng=root_rng(request.seed),
                        timeout=config.timeout,
                    ).run()
                finally:
                    del self._live[sid]
        except ProtocolAbort as exc:
            outcome.update(event="aborted", party=exc.party, reason=str(exc))
            return outcome
        except Exception as exc:  # repro: allow[REP004] -- supervisor boundary: any unexpected failure becomes an attributed 'failed' event after session_peers aborted the session's peers, never a hang
            outcome.update(event="failed", reason=f"{type(exc).__name__}: {exc}")
            return outcome
        outcome.update(
            event="released",
            accepted=result.release.accepted,
            estimate=tuple(result.release.estimate),
            release=encode_message(result.release),
            elapsed_s=time.perf_counter() - start,
            # Engine stage timings (including the per-phase ``phase:*``
            # entries) travel with the outcome so the dispatcher's
            # /metrics histograms see work done in worker processes.
            stages=dict(result.timer.stages),
        )
        return outcome
