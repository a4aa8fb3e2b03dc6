"""Async serving: one front-end multiplexing many sessions.

A deployment built on :mod:`repro.net.nodes` runs exactly one protocol
session per process: the front-end blocks in ``recv`` whenever a prover
is computing a Σ-proof or a client population is enrolling, and that
idle time is simply lost.  This module turns the front-end into a
multiplexer:

* :class:`AsyncSocketTransport` — the TCP listener over ``asyncio``
  streams.  Same length-prefixed frame protocol, same
  ``max_frame_bytes`` cap and whole-frame deadline semantics as the
  blocking :class:`~repro.net.transport.SocketTransport`, byte-for-byte
  wire compatible with it (session 0 traffic is the v1 format
  unchanged).  Every connection is one peer of one session: its
  handshake header announces that session as the connection's *scope*,
  a per-connection reader task queues its frames per ``(peer,
  session)``, and a frame tagged with any other session aborts the
  connection.
* :class:`SessionChannel` — a synchronous
  :class:`~repro.net.transport.Transport` facade over one session of a
  shared :class:`AsyncSocketTransport`.  The protocol engine and the
  role nodes are synchronous and stay *unchanged*; a channel bridges
  their blocking ``send``/``recv`` calls into the owning event loop with
  ``asyncio.run_coroutine_threadsafe``.
* :class:`SessionMux` — the multiplexing front-end: N concurrent
  sessions in one process.  Each session is an asyncio task driving an
  unchanged :class:`~repro.net.nodes.AnalystNode` (hence the unchanged
  :class:`~repro.api.engine.ProtocolEngine` with its
  :class:`~repro.net.nodes.RemoteProver` proxies) on an executor
  thread; while one session's engine waits on a prover RPC or a client
  chunk, the event loop keeps every other session's frames moving.
  Under seeded RNG each released session is byte-identical to a solo
  in-process :class:`repro.api.Session` run with the same seed.

Every peer of a mux is a blocking :func:`~repro.net.roles.run_role`
over ``roles.dial(name, host, port, session=s)``: one connection per
peer per session, the same peer a single-session front-end gets.  A
session-0 peer speaks the legacy v1 format and needs no change at all.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.engine import EngineResult
from repro.api.queries import Query
from repro.errors import ParameterError, ProtocolAbort
from repro.net.nodes import AnalystNode
from repro.net.transport import (
    _HANDSHAKE_MAX_BYTES,
    _LEN,
    _V2_FLAG,
    DEFAULT_MAX_FRAME_BYTES,
    HandshakeGate,
    Transport,
    check_frame_size,
    check_session_id,
    pack_frame,
    split_header_word,
)
from repro.utils.rng import RNG

__all__ = [
    "AsyncSocketTransport",
    "SessionChannel",
    "SessionMux",
    "SessionSpec",
]

# Queue sentinel: the connection feeding this queue failed; the reason
# lives on the connection record.
_FAILED = object()

_DEFAULT_HANDSHAKE_TIMEOUT = 30.0

# Inbound frames a (peer, session) queue buffers before the reader task
# stops draining that connection's TCP stream.  This is the async
# equivalent of the blocking transport's kernel-buffer backpressure: a
# peer flooding frames faster than the engine consumes them fills the
# queue, then its own socket, then blocks — it cannot grow front-end
# memory without bound.
_MAX_QUEUED_FRAMES = 1024


class _Conn:
    """One accepted connection: a peer, its session scope, streams, a
    reader task."""

    __slots__ = ("peer", "scope", "reader", "writer", "task", "failure")

    def __init__(self, peer, scope, reader, writer):
        self.peer = peer
        self.scope = scope
        self.reader = reader
        self.writer = writer
        self.task: asyncio.Task | None = None
        self.failure: str | None = None


class AsyncSocketTransport:
    """TCP frames over asyncio streams, one connection per (peer, session).

    The async counterpart of the listening
    :class:`~repro.net.transport.SocketTransport` — same frame protocol,
    caps and abort semantics — except ``send`` and ``recv`` take a
    ``session`` and one listener carries any number of concurrent
    sessions: each ``(peer, session)`` pair is the connection that peer
    opened scoped to that session.

    All methods must run on the owning event loop; synchronous code uses
    a :class:`SessionChannel`.
    """

    def __init__(
        self, name: str, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    ) -> None:
        if not 1 <= max_frame_bytes < _V2_FLAG:
            raise ParameterError("max_frame_bytes must be in [1, 2**31)")
        self.name = name
        self.max_frame_bytes = max_frame_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self._gate = HandshakeGate()
        self.dropped_handshakes = self._gate.dropped
        self._conns: dict[tuple[str, int], _Conn] = {}
        self._queues: dict[tuple[str, int], asyncio.Queue] = {}
        self._server: asyncio.base_events.Server | None = None
        self._accepted: asyncio.Queue[str] = asyncio.Queue()
        self._accept_expected: list | None = None
        self._accept_active = False
        self._accept_deadline: float | None = None
        # Standing expectation filter, consulted whenever no accept() is
        # in flight.  A fleet front-end keeps its listener open for the
        # whole deployment (sessions arrive dynamically, each bringing
        # scoped peer connections), so it cannot stop listening once a
        # topology is complete — this filter is what keeps the idle
        # listener from handshaking strangers between placements
        # (default None admits any; [] drops all).
        self.default_expected: list | None = None
        self.port: int | None = None

    # Construction -----------------------------------------------------------

    @classmethod
    async def listen(
        cls,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncSocketTransport":
        """Start the listener."""
        transport = cls(name, max_frame_bytes=max_frame_bytes)
        server = await asyncio.start_server(transport._handle_connection, host, port)
        transport._server = server
        transport.port = server.sockets[0].getsockname()[1]
        return transport

    # Accepting --------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            scope, raw = await self._read_wire_frame(
                reader,
                max_bytes=_HANDSHAKE_MAX_BYTES,
                party="connecting peer",
                timeout=self._handshake_timeout(),
            )
            peer = raw.decode()
        except (ProtocolAbort, UnicodeDecodeError, asyncio.TimeoutError, OSError):
            self._gate.note_dropped("<unreadable handshake>")
            writer.close()
            return
        # The standing filter applies whenever no accept() is in flight.
        expected = (
            self._accept_expected if self._accept_active else self.default_expected
        )
        if not self._gate.admit(peer, scope, expected, self._conns):
            writer.close()
            return
        conn = self._conns[(peer, scope)] = _Conn(peer, scope, reader, writer)
        conn.task = asyncio.ensure_future(self._reader_loop(conn))
        self._accepted.put_nowait(peer)

    def _handshake_timeout(self) -> float:
        if self._accept_deadline is not None:
            return max(self._accept_deadline - time.monotonic(), 0.01)
        return _DEFAULT_HANDSHAKE_TIMEOUT

    async def accept(
        self,
        count: int,
        timeout: float | None = 30.0,
        *,
        expected: list | None = None,
    ) -> list[str]:
        """Await ``count`` handshaken connections; returns their names
        (one entry per connection — a name repeats when the same peer
        connects once per session).

        ``expected`` entries are peer names, or ``(name, scope)`` pairs
        to additionally pin the handshake's session scope — a front-end
        whose topology is known should pin scopes (see
        :class:`~repro.net.transport.HandshakeGate`, the admit/drop
        decision shared with the blocking listener).  Broken or refused
        handshakes are dropped while accepting continues under one
        overall monotonic deadline, and the timeout abort names every
        dropped handshake.
        """
        if self._server is None:
            raise ParameterError("accept requires a listening transport")
        deadline = None if timeout is None else time.monotonic() + timeout
        self._accept_deadline = deadline
        self._accept_expected = list(expected) if expected is not None else None
        self._accept_active = True
        names: list[str] = []
        try:
            while len(names) < count:
                # An already-elapsed deadline times out in wait_for too.
                remaining = None if deadline is None else deadline - time.monotonic()
                try:
                    names.append(await asyncio.wait_for(self._accepted.get(), remaining))
                except asyncio.TimeoutError as exc:
                    raise ProtocolAbort(self._gate.timeout_message()) from exc  # repro: allow[REP004] -- no single culprit: the timeout message names every absent peer
            return names
        finally:
            self._accept_deadline = None
            self._accept_expected = None
            self._accept_active = False

    # Frame IO ---------------------------------------------------------------

    async def _read_wire_frame(
        self,
        reader: asyncio.StreamReader,
        *,
        max_bytes: int,
        party: str,
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One (session, frame); the timeout covers the *whole* frame —
        the same per-frame (never per-byte) deadline the blocking
        transport enforces."""

        async def read() -> tuple[int, bytes]:
            word = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
            size, has_session = split_header_word(word)
            session = 0
            if has_session:
                session = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
                check_session_id(session, party=party)
            check_frame_size(size, max_bytes, party)
            return session, await reader.readexactly(size)

        try:
            if timeout is None:
                return await read()
            return await asyncio.wait_for(read(), timeout)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolAbort(
                f"{party!r} closed the connection", party=party
            ) from exc

    async def _reader_loop(self, conn: _Conn) -> None:
        """Pump one connection into its ``(peer, session)`` queue.

        The ``put`` awaits when the queue is full — backpressure through
        TCP onto the sending peer, exactly what the blocking transport
        gets from never reading faster than ``recv`` is called.
        """
        try:
            while True:
                session, frame = await self._read_wire_frame(
                    conn.reader, max_bytes=self.max_frame_bytes, party=conn.peer
                )
                if session != conn.scope:
                    raise ProtocolAbort(
                        f"{conn.peer!r} sent a session-{session} frame on a "
                        f"session-{conn.scope} channel",
                        party=conn.peer,
                    )
                self.bytes_received += len(frame)
                self.frames_received += 1
                await self._queue(conn.peer, session).put(frame)
        except ProtocolAbort as exc:
            self._fail_conn(conn, str(exc))
        except (OSError, EOFError) as exc:
            self._fail_conn(conn, f"socket to {conn.peer!r} failed: {exc}")
        except asyncio.CancelledError:
            self._fail_conn(conn, "transport closed")
            raise

    def _fail_conn(self, conn: _Conn, reason: str) -> None:
        if conn.failure is None:
            conn.failure = reason
        conn.writer.close()
        # Wake the receiver this connection feeds; a late-created queue
        # (or a receiver behind a full one) consults conn.failure once it
        # drains.
        queue = self._queues.get((conn.peer, conn.scope))
        if queue is not None:
            try:
                queue.put_nowait(_FAILED)
            except asyncio.QueueFull:
                pass

    def _queue(self, peer: str, session: int) -> asyncio.Queue:
        queue = self._queues.get((peer, session))
        if queue is None:
            queue = self._queues[(peer, session)] = asyncio.Queue(_MAX_QUEUED_FRAMES)
        return queue

    async def send(self, peer: str, frame: bytes, session: int = 0) -> None:
        """Deliver ``frame`` to ``peer`` within ``session`` (ordered per
        connection)."""
        if not isinstance(frame, (bytes, bytearray)):
            raise ParameterError("transports carry bytes frames only")
        conn = self._conns.get((peer, session))
        if conn is None:
            raise ParameterError(
                f"{self.name!r} has no channel to {peer!r} for session {session}"
            )
        if conn.failure is not None:
            raise ProtocolAbort(conn.failure, party=peer)
        conn.writer.write(pack_frame(bytes(frame), session))
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError) as exc:
            self._fail_conn(conn, f"socket to {peer!r} failed: {exc}")
            raise ProtocolAbort(
                f"socket to {peer!r} failed: {exc}", party=peer
            ) from exc
        self.bytes_sent += len(frame)
        self.frames_sent += 1

    async def recv(
        self, peer: str, session: int = 0, timeout: float | None = None
    ) -> bytes:
        """Await the next frame from ``peer`` within ``session``.

        Raises :class:`ProtocolAbort` (party=peer) on timeout or a failed
        connection — identical semantics to the blocking transport.
        """
        queue = self._queue(peer, session)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if not queue.empty():
                frame = queue.get_nowait()
            else:
                conn = self._conns.get((peer, session))
                if conn is not None and conn.failure is not None:
                    raise ProtocolAbort(conn.failure, party=peer)
                # An already-elapsed deadline times out in wait_for too.
                remaining = None if deadline is None else deadline - time.monotonic()
                try:
                    frame = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError as exc:
                    raise ProtocolAbort(
                        f"{self.name!r} timed out waiting for {peer!r}", party=peer
                    ) from exc
            if frame is _FAILED:
                # Leave the sentinel for any other waiter on this queue.
                try:
                    queue.put_nowait(_FAILED)
                except asyncio.QueueFull:
                    pass
                conn = self._conns.get((peer, session))
                reason = (conn.failure if conn is not None else None) or (
                    f"channel to {peer!r} closed"
                )
                raise ProtocolAbort(reason, party=peer)
            return frame

    async def release_session(self, session: int) -> None:
        """Forget one finished session: close its connections and drop
        its queues.

        A long-lived front-end (the fleet worker) serves an unbounded
        stream of sessions, each arriving with its own scoped peer
        connections; without this the ``_conns``/``_queues`` maps — and
        the dead sockets behind them — grow for the deployment's
        lifetime.
        """
        for key, conn in list(self._conns.items()):
            if key[1] == session:
                del self._conns[key]
                await self._close_conn(conn)
        for key in [k for k in self._queues if k[1] == session]:
            del self._queues[key]

    async def aclose(self) -> None:
        """Close the listener and every connection; cancel reader tasks."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover  # repro: allow[REP004] -- best-effort listener close during teardown; nothing protocol-visible can be lost here
                pass
        for conn in list(self._conns.values()):
            await self._close_conn(conn)

    @staticmethod
    async def _close_conn(conn: _Conn) -> None:
        """Cancel and reap one connection's reader task, close its socket."""
        conn.task.cancel()
        conn.writer.close()
        try:
            await conn.task
        except (asyncio.CancelledError, Exception):  # pragma: no cover  # repro: allow[REP004] -- reaping a cancelled reader task at close; its failure already surfaced as a queue abort with attribution
            pass


class SessionChannel(Transport):
    """One session of a shared :class:`AsyncSocketTransport`, presented as
    a synchronous :class:`~repro.net.transport.Transport`.

    Role nodes and the protocol engine are synchronous; a channel lets
    them run unchanged on executor threads while all socket I/O happens
    on the owning event loop (``asyncio.run_coroutine_threadsafe``).
    Timeouts are enforced inside the loop, so abort semantics — a
    :class:`ProtocolAbort` naming the silent party — are exactly those of
    the blocking transport.  ``close`` is a no-op: the shared async
    transport outlives its sessions and is closed by its owner.
    """

    def __init__(
        self,
        aio: AsyncSocketTransport,
        session: int,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        super().__init__(aio.name)
        self.aio = aio
        self.session = session
        self.loop = loop

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def _send(self, peer: str, frame: bytes) -> None:
        self._call(self.aio.send(peer, frame, session=self.session))

    def _recv(self, peer: str, timeout: float | None) -> bytes:
        return self._call(self.aio.recv(peer, session=self.session, timeout=timeout))


@dataclass
class SessionSpec:
    """What one multiplexed session runs: a query plus its knobs.

    ``rng`` seeds the session exactly as it would a solo
    :class:`repro.api.Session` — same fork labels, hence byte-identical
    releases.
    """

    query: Query
    rng: RNG | None = None
    group: str = "modp-2048"
    nb_override: int | None = None
    chunk_size: int | None = None


class SessionMux:
    """A serving front-end that runs concurrent sessions in one process.

    Session *s* is an asyncio task driving an unchanged
    :class:`~repro.net.nodes.AnalystNode` over ``SessionChannel(s)`` on an
    executor thread: the engine, the ``RemoteProver`` proxies and every
    verification path are exactly the single-session code.  Whenever one
    session's engine blocks on a prover RPC or an enrollment chunk, the
    event loop keeps serving every other session's frames — the
    front-end's idle time becomes other sessions' progress.

    A fleet worker (:mod:`repro.net.frontend`) places sessions with
    :meth:`serve_session`, one per placement and up to
    ``max_concurrency`` at a time, and the mux lives until
    :meth:`close`, holding nothing about a session once its
    :meth:`serve_session` call is over.
    """

    def __init__(
        self,
        transport: AsyncSocketTransport,
        servers: list[str],
        *,
        timeout: float | None = 60.0,
        max_concurrency: int = 8,
    ) -> None:
        if max_concurrency < 1:
            raise ParameterError("max_concurrency must be >= 1")
        self.transport = transport
        self.servers = list(servers)
        self.timeout = timeout
        self.max_concurrency = max_concurrency
        self._executor: ThreadPoolExecutor | None = None

    def _session_executor(self) -> ThreadPoolExecutor:
        # Sized to the concurrency cap: a session queued behind a full
        # executor would leave its peers blocked in their setup recv
        # until the protocol timeout, so the cap must bound admissions
        # (the fleet worker's capacity), never surprise-serialize them.
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_concurrency, thread_name_prefix="mux-session"
            )
        return self._executor

    def _serve_one(
        self, session: int, spec: SessionSpec, loop: asyncio.AbstractEventLoop
    ) -> EngineResult:
        return AnalystNode(
            spec.query,
            SessionChannel(self.transport, session, loop),
            self.servers,
            group=spec.group,
            nb_override=spec.nb_override,
            chunk_size=spec.chunk_size,
            rng=spec.rng,
            timeout=self.timeout,
        ).run()

    async def serve_session(self, session: int, spec: SessionSpec) -> EngineResult:
        """Serve one session to completion.

        Runs the unchanged analyst on an executor thread and returns the
        outcome (or raises the failure).  Nothing about the session is
        kept on the mux: a fleet worker's mux serves an unbounded stream,
        and an ``EngineResult`` holds every retained broadcast and coin
        message of its run.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._session_executor(), self._serve_one, session, spec, loop
        )

    def close(self) -> None:
        """Release the session executor (idempotent).  Never blocks the
        event loop on thread teardown: session threads hold recv
        timeouts and die on their own."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
