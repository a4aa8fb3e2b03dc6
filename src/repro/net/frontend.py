"""A fleet front-end: one worker process of a :class:`~repro.net.fleet.FleetDispatcher`.

Each worker's main thread is a blocking command loop: it reads one
queue, fed by a thread that reads the dispatcher's pipe and by the
session threads, each posting its outcome when it ends.  A placed session
is served on a thread of the worker's session executor by the one
session call, :func:`repro.net.serve.run_distributed_session`, over
``socket`` with its peers as threads: a listener of the session's own,
peer threads that dial it, and an analyst doing blocking frame I/O.  The
session thread turns what that call returns or raises into a
:class:`~repro.net.fleet.SessionOutcome`, which the loop sends to the
dispatcher as it is.  The loop places sessions and reports outcomes; no
frame crosses it, and nothing waits in it: the dispatcher places a
session only into a free slot, so each one starts as it arrives.  The
dispatcher imports this module before it forks a worker: the worker
inherits the loaded modules and compiles nothing (DESIGN.md "Cold
start").
"""

from __future__ import annotations

import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ProtocolAbort
from repro.net.fleet import FleetConfig, SessionOutcome, SessionRequest
from repro.net.nodes import abort_peers
from repro.net.roles import peer_roles
from repro.net.serve import run_distributed_session

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
    slot) and ``stop`` (exit now).  Out: one ``(SessionOutcome, stages)``
    pair per session.
    """

    def __init__(self, name: str, conn, config: FleetConfig) -> None:
        self.name = name
        self.conn = conn
        self.config = config
        self.peers = [name for _, name in peer_roles(config.num_servers, 0)]
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
            for transport in list(self._live.values()):
                abort_peers(transport, self.peers, "front-end stopping")
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

    def _send(self, outcome: tuple) -> None:
        try:
            self.conn.send(outcome)
        except (OSError, ValueError, BrokenPipeError):
            pass  # dispatcher gone; the stop path will follow

    def _start(self, request: SessionRequest) -> None:
        session = self._executor.submit(self._run_session, request, self._next_session)
        self._next_session += 1
        # Runs on the session thread once _run_session has returned.
        session.add_done_callback(
            lambda done: self._commands.put({"cmd": "_finished", "session": done})
        )

    def _run_session(
        self, request: SessionRequest, sid: int
    ) -> tuple[SessionOutcome, dict | None]:
        """Serve one placement on a session thread: the solo socket
        session with its peers as threads, on a listener bound to session
        ``sid``.  Returns its outcome and, for a release, the engine's
        stage timings, which travel with it so that the dispatcher's
        /metrics histograms see work done in worker processes."""
        config = self.config
        outcome = functools.partial(SessionOutcome, request.request_id, self.name)
        try:
            served = run_distributed_session(
                request.query,
                request.values,
                transport="socket",
                num_servers=config.num_servers,
                group=config.group,
                nb_override=config.nb_override,
                chunk_size=config.chunk_size,
                seed=request.seed,
                host=config.host,
                timeout=config.timeout,
                verify_equivalence=False,
                session=sid,
                threads=True,
                live=self._live,
            )
        except ProtocolAbort as exc:
            return outcome("aborted", party=exc.party, reason=str(exc)), None
        except Exception as exc:  # repro: allow[REP004] -- supervisor boundary: any unexpected failure becomes a 'crashed' outcome naming this front-end after the session's peers were told to stop, never a hang
            reason = f"{type(exc).__name__}: {exc}"
            return outcome("crashed", party=self.name, reason=reason), None
        released = outcome(
            "released",
            accepted=served["accepted"],
            estimate=tuple(served["estimate"]),
            release_frame=served["release_frame"],
            elapsed_s=served["elapsed_s"],
        )
        return released, served["stages"]
