"""A TCP admission gateway: drive a live fleet from outside its process.

``repro serve --fleet`` historically ran a fixed batch of sessions and
exited — fine for demos, useless for load generation, where the client
decides *when* sessions arrive.  :class:`FleetGateway` turns a running
:class:`~repro.net.fleet.FleetDispatcher` into a server: clients connect
over plain TCP and speak newline-delimited JSON —

* ``{"op": "session", "id": 7, "values": [1,0,1], "seed": "run/g7"}``
  admits one session (the gateway owns the query; values and seed are
  the client's).  One reply line comes back whenever that session gets
  an outcome: ``{"id": 7, "status": "released", "accepted": true,
  "estimate": [...], "elapsed_s": ..., "frontend": "fe-1",
  "release_bytes": ...}`` — or ``status`` ``aborted`` / ``crashed`` /
  ``rejected`` / ``timeout`` with a ``reason``.
* ``{"op": "ping"}`` answers ``{"ok": true}`` (liveness probe).

Replies are per-session and unordered — the whole point of an open-loop
client (:mod:`repro.loadgen`) is that arrivals never wait for
completions, so the gateway must not serialize them either.  Each
admitted session gets a waiter thread parked on
``dispatcher.wait({id})``; the dispatcher's no-hang invariant (every
admitted request gets an outcome, crash or not) bounds every waiter.

This is deliberately *not* the protocol wire format
(:mod:`repro.net.wire`): the gateway is a control-plane admission
surface in the trusted front-end tier, not a protocol participant, and
JSON lines keep it scriptable (``nc``, a five-line client, the load
generator).
"""

from __future__ import annotations

import json
import socket
import threading

from repro.api.queries import Query
from repro.errors import ParameterError, ProtocolAbort, ReproError
from repro.net.fleet import FleetDispatcher, SessionRequest
from repro.net.transport import _prepare_stream_socket

__all__ = ["FleetGateway"]

_MAX_LINE_BYTES = 1 << 20  # a session request is small; a 1 MiB line is hostile


class FleetGateway:
    """Admit sessions into a :class:`FleetDispatcher` over TCP JSON lines."""

    def __init__(
        self,
        dispatcher: FleetDispatcher,
        query: Query,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 120.0,
    ) -> None:
        self.dispatcher = dispatcher
        self.query = query
        self.timeout = timeout
        self._lock = threading.Lock()
        self._next_id = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self.admitted = 0
        self.rejected = 0
        self._closed = threading.Event()
        self._conns: set[socket.socket] = set()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"gateway-accept-{self.port}", daemon=True
        )
        self._accept_thread.start()

    # Accept/serve loops -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            # Two sessions finishing close together write two outcome
            # lines on one connection with no read in between.
            _prepare_stream_socket(conn)
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        waiters: list[threading.Thread] = []
        try:
            with conn.makefile("rb") as lines:
                for line in lines:
                    if len(line) > _MAX_LINE_BYTES:
                        break  # hostile framing; drop the connection
                    with self._lock:
                        self.bytes_received += len(line)
                    if not line.strip():
                        continue
                    waiter = self._handle_line(conn, write_lock, line)
                    if waiter is not None:
                        waiters.append(waiter)
        except OSError:
            pass  # peer went away; waiters still resolve their sessions
        finally:
            for waiter in waiters:
                waiter.join(timeout=self.timeout + 5.0)
            self._discard(conn)

    def _handle_line(self, conn, write_lock, line: bytes):
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            op = payload.get("op", "session")
            if op == "ping":
                self._reply(conn, write_lock, {"ok": True})
                return None
            if op != "session":
                raise ValueError(f"unknown op {op!r}")
            values = payload["values"]
            if not isinstance(values, list):
                raise ValueError("values must be a list")
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(
                conn,
                write_lock,
                {"id": None, "status": "rejected", "reason": f"bad request: {exc}"},
            )
            with self._lock:
                self.rejected += 1
            return None

        client_id = payload.get("id")
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        request = SessionRequest(
            request_id, self.query, list(values), seed=payload.get("seed")
        )
        try:
            self.dispatcher.submit(request)
        except (ParameterError, ProtocolAbort) as exc:
            self._reply(
                conn,
                write_lock,
                {"id": client_id, "status": "rejected", "reason": str(exc)},
            )
            with self._lock:
                self.rejected += 1
            return None
        with self._lock:
            self.admitted += 1
        waiter = threading.Thread(
            target=self._await_outcome,
            args=(conn, write_lock, client_id, request_id),
            name=f"gateway-wait-{request_id}",
            daemon=True,
        )
        waiter.start()
        return waiter

    def _await_outcome(self, conn, write_lock, client_id, request_id: int) -> None:
        finished = self.dispatcher.wait({request_id}, timeout=self.timeout)
        outcome = self.dispatcher.outcomes.get(request_id)
        if not finished or outcome is None:
            reply = {
                "id": client_id,
                "status": "timeout",
                "reason": f"no outcome within {self.timeout}s",
            }
        elif outcome.status == "released":
            reply = {
                "id": client_id,
                "status": "released",
                "accepted": outcome.accepted,
                "estimate": list(outcome.estimate),
                "elapsed_s": outcome.elapsed_s,
                "frontend": outcome.frontend,
                "release_bytes": (
                    len(outcome.release_frame)
                    if outcome.release_frame is not None
                    else 0
                ),
            }
        else:
            reply = {
                "id": client_id,
                "status": outcome.status,
                "frontend": outcome.frontend,
                "party": outcome.party,
                "reason": outcome.reason,
            }
        self._reply(conn, write_lock, reply)

    def _reply(self, conn, write_lock, reply: dict) -> None:
        data = (
            json.dumps(reply, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        try:
            with write_lock:
                conn.sendall(data)
        except (OSError, ReproError):
            return  # client hung up; the outcome stays in the dispatcher
        with self._lock:
            self.bytes_sent += len(data)

    def _discard(self, conn) -> None:
        with self._lock:
            self._conns.discard(conn)
        try:
            conn.close()
        except OSError:
            pass

    # Lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and drop every connection (idempotent).  The
        dispatcher — and any sessions still in flight — belong to the
        caller; draining it is the caller's decision."""
        if self._closed.is_set():
            return
        self._closed.set()
        # Closing a listening socket does not wake a thread parked in
        # accept() on Linux; shutting it down first does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
