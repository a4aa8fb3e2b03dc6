"""A fleet front-end: one worker process of a :class:`~repro.net.fleet.FleetDispatcher`.

Each worker's main thread is a blocking command loop: it reads one
queue, fed by a thread that reads the dispatcher's pipe and by the
session threads, each posting its outcome when it ends.  A placed session
is served the way ``run_distributed_session(transport="socket")`` serves
one (:func:`repro.net.serve.session_peers`): on a thread of the worker's
session executor, with a listener of the session's own, peer threads
that dial it, and an analyst doing blocking frame I/O.  The loop places
sessions and reports outcomes; no frame crosses it, and nothing waits
in it: the dispatcher places a session only into a free slot, so each
one starts as it arrives.  The dispatcher imports this module before it
forks a worker: the worker inherits the loaded modules and compiles
nothing (DESIGN.md "Cold start").
"""

from __future__ import annotations

import os
import queue
import threading
import time
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
        _FrontEnd(name, conn, config).run()
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass


class _FrontEnd:
    """One fleet worker: the command loop that binds the dispatcher's
    pipe to a session executor of ``capacity`` threads.

    Commands in: ``place`` (a :class:`SessionRequest`, into a free
    slot) and ``stop`` (exit now).  Events out: ``released`` /
    ``aborted`` / ``failed``, one per session.
    """

    def __init__(self, name: str, conn, config: FleetConfig) -> None:
        self.name = name
        self.conn = conn
        self.config = config
        self.roles = peer_roles(config.num_servers, 0)
        self.server_names = role_names(self.roles, "server")
        self._next_session = 0
        # Dispatcher commands from the pipe-reader thread and session
        # outcomes from the session threads, read by the command loop
        # alone, which is also the only thread that writes to the pipe.
        self._commands: queue.Queue[dict] = queue.Queue()
        # Sized to the capacity, which the dispatcher never exceeds: a
        # placement queued behind a full executor would leave its peers
        # blocked in their setup recv until the protocol timeout.
        self._executor = ThreadPoolExecutor(
            max_workers=config.capacity, thread_name_prefix=f"{name}-session"
        )
        # Session id -> analyst transport of each session being served,
        # so that stopping can tell its peers to stop waiting.
        self._live: dict = {}

    def run(self) -> None:
        threading.Thread(target=self._read_commands, daemon=True).start()
        try:
            while True:
                command = self._commands.get()
                cmd = command.get("cmd")
                if cmd == "place":
                    self._start(command["request"])
                elif cmd == "_finished":
                    self._send(command["session"].result())
                elif cmd == "stop":
                    break
        finally:
            # Tell the peers of every session still in flight to stop
            # waiting, then leave without joining a session thread: an
            # aborted session's thread ends once its peers have.
            names = [name for _, name in self.roles]
            for transport in list(self._live.values()):
                abort_peers(transport, names, "front-end stopping")
            self._executor.shutdown(wait=False)

    def _read_commands(self) -> None:
        """Pipe → command queue bridge (runs on its own thread)."""
        while True:
            try:
                command = self.conn.recv()
            except (EOFError, OSError):
                # Dispatcher gone: treat as stop so the worker exits
                # instead of serving headless forever.
                command = {"cmd": "stop"}
            self._commands.put(command)
            if command.get("cmd") == "stop":
                return

    def _send(self, event: dict) -> None:
        try:
            self.conn.send(event)
        except (OSError, ValueError, BrokenPipeError):
            pass  # dispatcher gone; the stop path will follow

    def _start(self, request: SessionRequest) -> None:
        session = self._executor.submit(self._run_session, request, self._next_session)
        self._next_session += 1
        # Runs on the session thread once _run_session has returned.
        session.add_done_callback(
            lambda done: self._commands.put({"cmd": "_finished", "session": done})
        )

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
