"""A fleet front-end: one worker process of a :class:`~repro.net.fleet.FleetDispatcher`.

Each worker's main thread reads the dispatcher's pipe itself, and each
``place`` starts one daemon thread for that session.  The session thread
serves the placement through the one session call,
:func:`repro.net.serve.run_distributed_session`, over ``socket`` with
its peers as threads: a listener of the session's own, peer threads
that dial it, and an analyst doing blocking frame I/O.  It turns what
that call returns or raises into a
:class:`~repro.net.fleet.SessionOutcome` and sends it to the dispatcher
itself.  No frame crosses the main thread, and nothing waits in it: the
dispatcher places a session only into a free slot, so each one starts
as it arrives.  ``stop`` or a closed pipe ends the main thread, and
process exit ends any session still in flight: its thread and its
peers' threads are daemons.  Until its first placement a worker runs no
thread but its main one.  The dispatcher imports this module before it
forks a worker: the worker inherits the loaded modules and compiles
nothing (DESIGN.md "Cold start").
"""

from __future__ import annotations

import functools
import os
import threading

from repro.errors import ProtocolAbort
from repro.net import roles  # noqa: F401 -- the session call's cast, loaded before the fork
from repro.net.fleet import FleetConfig, SessionOutcome, SessionRequest
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
    _FrontEnd(name, conn, config).run()


class _FrontEnd:
    """One fleet worker: the dispatcher's pipe, read on the main thread,
    and one daemon thread per placed session.

    Commands in: ``place`` (a :class:`SessionRequest`, into a free
    slot) and ``stop`` (exit now).  Out: one ``(SessionOutcome, stages)``
    pair per session, sent by that session's thread.
    """

    def __init__(self, name: str, conn, config: FleetConfig) -> None:
        self.name = name
        self.conn = conn
        self.config = config
        self._next_session = 0
        # Session threads send their outcomes themselves, one pair at a
        # time; the main thread closes the pipe under it too.
        self._send_lock = threading.Lock()

    def run(self) -> None:
        try:
            while True:
                try:
                    command = self.conn.recv()
                except (EOFError, OSError):
                    return  # dispatcher gone: exit, never serve headless
                cmd = command.get("cmd")
                if cmd == "place":
                    self._start(command["request"])
                elif cmd == "stop":
                    return
        finally:
            # No session thread is halfway through a send when it closes.
            with self._send_lock:
                self.conn.close()

    def _start(self, request: SessionRequest) -> None:
        sid = self._next_session
        self._next_session += 1
        threading.Thread(
            target=self._serve,
            args=(request, sid),
            name=f"{self.name}-session-{sid}",
            daemon=True,
        ).start()

    def _serve(self, request: SessionRequest, sid: int) -> None:
        """Session thread: serve one placement and send its outcome."""
        outcome = self._run_session(request, sid)
        with self._send_lock:
            try:
                self.conn.send(outcome)
            except OSError:
                pass  # the pipe closed first: the worker is exiting

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
