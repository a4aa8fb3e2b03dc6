"""Role nodes: ΠBin's parties as processes behind a :class:`Transport`.

The design keeps :class:`repro.api.engine.ProtocolEngine` *unchanged*:
the analyst front-end constructs the engine exactly as an in-process
:class:`repro.api.Session` would, but hands it :class:`RemoteProver`
proxies whose prover-facing methods are RPCs to a :class:`ServerNode`
hosting the real :class:`repro.core.prover.Prover`.  Because the engine
drives proxies through the same call sequence, a distributed run under
seeded RNG produces a release *byte-identical* to the in-process path
(the equivalence tests in ``tests/net`` assert exactly this).

Topology: a star around the analyst.  Clients send wire-encoded
enrollment bundles (public broadcast + K private share messages) to the
front-end, which feeds ``engine.submit_prepared`` and forwards each
private share to its server inside the share-check RPC.  In a hardened
deployment the share channel would run client→server directly (the
front-end is the analyst, who must not learn openings); the routing here
reproduces the simulator's trust model, not a production key layout —
see DESIGN.md.

Morra runs through the same proxies: the server samples and commits on
its own randomness tape (preserving per-party RNG streams), the analyst
verifier co-samples, and :func:`repro.mpc.morra.run_morra_batch` checks
every opening as usual.  A server's contributions never cross the wire
before the reveal round — the sample RPC reports only a count, so even
a malicious front-end cannot see the values it must commit against.

A proxy never waits for a reply it does not need yet (the owed-reply
rule, :class:`RemoteProver`): a chunk request carries its Morra sample
and commit requests, ``begin-coin-stream`` and ``absorb-bits`` are sent
without waiting, and each reply is read — in the order the peer owes
them — when something needs it.  Only *when* the analyst sends and reads
moves: every server receives the lock-step order's request frames, in
that order, and answers each with the same bytes.
"""

from __future__ import annotations

import time
from collections import deque

from repro.api.engine import EngineResult, fork_rng
from repro.api.queries import ComposedQuery, Query
from repro.api.session import build_engine
from repro.core.messages import (
    ClientBroadcast,
    ClientShareMessage,
    CoinCommitmentMessage,
    ProverOutputMessage,
    Release,
)
from repro.core.params import PublicParams
from repro.core.prover import Prover
from repro.crypto.serialization import (
    decode_message,
    encode_message,
    encode_message_cached,
)
from repro.errors import (
    EncodingError,
    NotOnGroupError,
    ParameterError,
    ProtocolAbort,
    ReproError,
)
from repro.mpc.commit import HashCommitment, HashCommitmentScheme
from repro.mpc.morra import MorraParticipant
from repro.net import wire
from repro.net.transport import Transport
from repro.utils.encoding import bytes_to_int, decode_utf8, int_to_bytes
from repro.utils.rng import RNG, SystemRNG

__all__ = [
    "RemoteProver",
    "ServerNode",
    "AnalystNode",
    "ClientRunner",
    "read_reply",
    "serve_requests",
    "shutdown_peers",
    "abort_peers",
]

_ANALYST = "analyst"
_CLIENTS = "clients"

# Teardown is post-release housekeeping: a dead peer must not stall it
# for the full protocol timeout, let alone timeout × remaining peers.
_SHUTDOWN_GRACE = 5.0

# The commitment scheme the engine's Morra rounds run with, and so the
# one a chunk request's sent-ahead ``morra-commit`` names.
_MORRA_SCHEME = HashCommitmentScheme()


def read_reply(transport, peer, timeout, what=None, parse=None):
    """Read ``peer``'s reply frame, or abort naming ``peer``.

    Everything a peer can get wrong in a reply is that peer's fault and
    becomes a :class:`ProtocolAbort` with ``party=peer`` — an undecodable
    frame, an abort status (``what`` prefixes the peer's reason), or ok
    parts that ``parse`` cannot make sense of (bad lengths, non-elements,
    unknown codes) — never a raw decoding error crashing the front-end
    with nobody attributed.  Returns ``parse(parts)``, or the parts.
    """
    prefix = f"{what}: " if what else ""
    frame = transport.recv(peer, timeout)
    try:
        ok, parts = wire.decode_reply(frame)
    except EncodingError as exc:
        raise ProtocolAbort(
            f"{prefix}undecodable reply from peer: {exc}", party=peer
        ) from exc
    if not ok:
        reason = parts[0].decode(errors="replace") if parts else "aborted, no reason"
        raise ProtocolAbort(prefix + reason, party=peer)
    if parse is None:
        return parts
    try:
        return parse(parts)
    except (ValueError, KeyError, IndexError) as exc:  # incl. Encoding/NotOnGroup
        raise ProtocolAbort(
            f"{prefix}malformed reply from peer: {exc}", party=peer
        ) from exc


def shutdown_peers(transport, peers, timeout, audit=None, *, grace=_SHUTDOWN_GRACE):
    """Shut peers down concurrently: send every shutdown control first,
    then collect the acks under one shared grace deadline.

    The serial predecessor paid a full ``timeout`` recv per dead peer —
    one crashed server stalled teardown by timeout × remaining peers —
    and its bare ``except ReproError: pass`` discarded *which* peer was
    dead.  Here the total wait is bounded by ``min(grace, timeout)``
    (acks from healthy peers are already queued by the time their recv
    runs, so the deadline is shared, not per-peer), and every
    unresponsive peer is named in the audit notes.  Returns the
    unresponsive peer names.

    Callers run this *before* publishing the release, so the note lands
    in the bytes that ship (never a post-publication mutation of the
    audit record).  Deliberate consequence: a peer dying at teardown
    makes the published release differ from a solo seeded run by exactly
    this note — the byte-identity gate flags the degraded deployment
    instead of silently passing it.
    """
    if timeout is not None:
        grace = min(grace, timeout)
    unresponsive: list[str] = []
    pending: list[str] = []
    for name in peers:
        try:
            transport.send(name, wire.encode_control("shutdown"))
            pending.append(name)
        except (ReproError, OSError):  # a dead peer's pipe or socket
            unresponsive.append(name)
    deadline = time.monotonic() + grace
    for name in pending:
        # The floor drains acks that are already queued even once a dead
        # peer has exhausted the shared deadline.
        remaining = max(deadline - time.monotonic(), 0.05)
        try:
            transport.recv(name, remaining)
        except ReproError:
            unresponsive.append(name)
    if unresponsive and audit is not None:
        audit.note("unresponsive at shutdown: " + ", ".join(unresponsive))
    return unresponsive


def abort_peers(transport, peers, reason):
    """Tell every peer of a dead session to stop waiting, best-effort.

    ``shutdown`` is the *healthy* teardown: request/ack, run after a
    release.  A session that dies mid-phase (protocol abort, front-end
    drain-kill) has no release and may have peers blocked in recv for
    the full protocol timeout — this one-way ``abort`` control turns
    that silent hang into a prompt, attributed exit: servers and shard
    workers return, the client runner raises a :class:`ProtocolAbort`
    naming the front-end.  Send failures are swallowed: an already-dead
    peer is exactly who this is for.
    """
    frame = wire.encode_control("abort", reason.encode())
    for name in peers:
        try:
            transport.send(name, frame)
        except (ReproError, OSError):
            pass


def serve_requests(transport, analyst, timeout, handle, on_error) -> None:
    """The loop every analyst-facing peer runs once set up.

    Hands each RPC frame to ``handle(method, parts)`` until the
    ``shutdown`` control (acked) or the one-way ``abort`` control (the
    session died on the front-end: no reply, just a prompt exit) arrives,
    then closes the transport.  Anything malformed goes to
    ``on_error(message)`` — an abort reply from a server, a remembered
    error from a shard worker — never a dead peer: the analyst
    attributes and moves on.
    """
    try:
        while True:
            frame = transport.recv(analyst, timeout)
            try:
                if wire.frame_kind(frame) == "ctrl":
                    ctrl, _ = wire.decode_control(frame)
                    if ctrl == "shutdown":
                        transport.send(analyst, wire.encode_reply())
                        return
                    if ctrl == "abort":
                        return
                    raise EncodingError(f"unexpected control {ctrl!r}")
                handle(*wire.decode_rpc(frame))
            except (ReproError, ValueError, IndexError, KeyError) as exc:
                on_error(f"{type(exc).__name__}: {exc}")
    finally:
        transport.close()


class RemoteProver(MorraParticipant):
    """Engine-facing proxy for a prover living behind a transport.

    Implements every method :class:`~repro.api.engine.ProtocolEngine`
    (and :func:`~repro.mpc.morra.run_morra_batch`) calls on a prover by
    round-tripping wire frames to the :class:`ServerNode` of the same
    name.  Holds no secrets and no randomness of its own.

    The owed-reply rule: a request goes out when the engine makes it, and
    its reply is read when something needs it.  Every frame sent appends
    its method to a FIFO of replies the peer owes; every read from the
    peer first reads, in order, what it owes before the reply wanted — an
    abort or undecodable one among them aborts naming the peer, as if it
    had been waited for.  So :meth:`request_coin_chunk` sends
    ``commit-coin-chunk``, ``morra-sample`` and ``morra-commit`` back to
    back and returns, the server proves and commits while the analyst
    checks the previous chunk, and :meth:`commit_coin_chunk`,
    :meth:`sample_values` and :meth:`commitments` take replies already on
    their way.  ``begin-coin-stream`` and ``absorb-bits`` answer nothing
    the next step needs and are not waited for — except a stream's last
    ``absorb-bits``, which is: nothing else is read from the peer before
    ``finish-output``, whose abort the engine records as a verdict, not a
    session abort.  Replies nobody will collect (a given-up stream's
    look-ahead) are read away unchecked by :meth:`drain`, or when a new
    stream begins.  The server still holds one pending chunk and one
    Morra slot: it receives the frames in the lock-step order.
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        params: PublicParams,
        *,
        timeout: float | None = 60.0,
    ) -> None:
        super().__init__(name, SystemRNG())
        self.transport = transport
        self.params = params
        self.timeout = timeout
        # Replies the peer owes, oldest first: the method each answers, or
        # None once nobody will collect it.
        self._owed: deque[str | None] = deque()
        self._lost: ProtocolAbort | None = None  # the first send that failed
        self._absorbed = 0  # coins of the current stream whose bits went out

    # RPC plumbing -----------------------------------------------------------

    def _send(self, method: str, *parts: bytes) -> None:
        # A peer that died under a pipe or socket is named at the next read
        # from it, where a waited-for request would have named it — not at
        # a send the engine may never need an answer to.
        try:
            self.transport.send(self.name, wire.encode_rpc(method, *parts))
        except (ProtocolAbort, OSError) as exc:
            if self._lost is None:
                self._lost = ProtocolAbort(f"{method}: send failed: {exc}", party=self.name)
        self._owed.append(method)

    def _read(self, method: str, parse=None):
        """The reply to the oldest owed ``method``, after every reply owed
        before it (checked, then dropped; a given-up one only dropped)."""
        while True:
            if self._lost is not None:
                raise self._lost
            owed = self._owed.popleft()
            if owed is None:
                self.transport.recv(self.name, self.timeout)
            elif owed != method:
                read_reply(self.transport, self.name, self.timeout, owed)
            else:
                return read_reply(self.transport, self.name, self.timeout, parse=parse)

    def _call(self, method: str, *parts: bytes, parse=None):
        self._send(method, *parts)
        return self._read(method, parse)

    def _collect(self, method: str, *parts: bytes, parse=None):
        """The reply to ``method``: sent ahead by :meth:`request_coin_chunk`,
        or sent now."""
        if method not in self._owed:
            self._send(method, *parts)
        return self._read(method, parse)

    def drain(self, timeout: float | None) -> None:
        """Read and discard every reply still owed — the look-ahead of a
        stream the engine gave up — so the peer's next frame answers the
        next frame sent."""
        owed, self._owed = len(self._owed), deque()
        if self._lost is not None:
            raise self._lost
        for _ in range(owed):
            self.transport.recv(self.name, timeout)

    # Client phase -----------------------------------------------------------

    def receive_client_share(
        self,
        broadcast: ClientBroadcast,
        message: ClientShareMessage,
        prover_index: int,
    ) -> bool:
        # The same broadcast goes into every prover's share-check RPC —
        # the cached encoder makes that one encoding, not K.
        reply = self._call(
            "share-check",
            encode_message_cached(broadcast),
            encode_message(message),
            int_to_bytes(prover_index),
        )
        return bool(reply) and reply[0] == b"\x01"

    def absorb_validated_clients(self, valid_ids, *, discard=()) -> None:
        self._call(
            "absorb-clients",
            wire.encode_str_list(valid_ids),
            wire.encode_str_list(discard),
        )

    # Coin phase -------------------------------------------------------------

    def begin_coin_stream(self, context: bytes) -> None:
        # A new stream gives up whatever the old one still owes.
        self._owed = deque(None for _ in self._owed)
        self._absorbed = 0
        self._send("begin-coin-stream", context)

    def request_coin_chunk(self, count: int, morra_count: int) -> None:
        self._send("commit-coin-chunk", int_to_bytes(count))
        self._send("morra-sample", int_to_bytes(self.params.q), int_to_bytes(morra_count))
        self._send("morra-commit", _MORRA_SCHEME.domain)

    def commit_coin_chunk(self, count: int) -> CoinCommitmentMessage:
        message = self._collect(
            "commit-coin-chunk",
            int_to_bytes(count),
            parse=self._decoder(CoinCommitmentMessage),
        )
        if message.prover_id != self.name:
            raise ProtocolAbort(
                f"server answered for {message.prover_id!r}", party=self.name
            )
        return message

    def absorb_public_bits(self, public_bits) -> None:
        self._send("absorb-bits", wire.encode_bit_matrix(public_bits))
        self._absorbed += len(public_bits)
        if self._absorbed >= self.params.nb:
            self._read("absorb-bits")

    # Output phase -----------------------------------------------------------

    def finish_output(self) -> ProverOutputMessage:
        return self._call("finish-output", parse=self._decoder(ProverOutputMessage))

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls
    # them.  The one-chunk compositions are the prover's own, over the RPCs.
    commit_coins = Prover.commit_coins
    compute_output = Prover.compute_output

    def _decoder(self, expected_type):
        """A reply parser: the first part as one ``expected_type`` message."""

        def parse(reply: list[bytes]):
            message = decode_message(self.params.group, reply[0])
            if not isinstance(message, expected_type):
                raise EncodingError(f"expected {expected_type.__name__}")
            return message

        return parse

    # Morra (Algorithm 1), proxied --------------------------------------------

    def sample_values(self, q: int, count: int) -> list[int]:
        """The server's sample; its contributions stay on the server.

        The reply carries only a count — returning the actual values
        would hand the analyst every server's secret contribution before
        the commit round, voiding Morra's hiding.  Placeholder zeros are
        enough for :func:`~repro.mpc.morra.run_morra_batch`, which only
        length-checks this list and combines the values from the
        commitment-verified reveal round.  The request normally rode with
        the chunk request; the server sampled right after proving.
        """
        reply = self._collect("morra-sample", int_to_bytes(q), int_to_bytes(count))
        if not reply or bytes_to_int(reply[0]) != count:
            raise ProtocolAbort("morra sample count mismatch", party=self.name)
        return [0] * count

    def commitments(self, scheme: HashCommitmentScheme, values):
        digests = self._collect(
            "morra-commit", scheme.domain, parse=lambda r: wire.decode_bytes_list(r[0])
        )
        if len(digests) != len(values):
            raise ProtocolAbort("morra commit count mismatch", party=self.name)
        # The opening randomness stays on the server until reveal.
        return [HashCommitment(d) for d in digests], [b""] * len(digests)

    def reveal(self, values, randomness, observed):
        def parse(reply: list[bytes]):
            opened_values, opened_randomness = reply
            return (
                wire.decode_int_list(opened_values),
                wire.decode_bytes_list(opened_randomness),
            )

        return self._call("morra-reveal", parse=parse)


class ServerNode:
    """One prover (curator) process: hosts a real Prover behind RPCs.

    Receives a setup frame (public parameters + aggregation plan), builds
    its :class:`~repro.core.prover.Prover` on its own randomness tape,
    then serves analyst RPCs until a shutdown control frame arrives.

    ``prover_factory(name, params, rng, plan)`` lets tests substitute the
    cheating prover subclasses — the verifier must catch them over the
    wire exactly as it does in process.
    """

    def __init__(
        self,
        transport: Transport,
        rng: RNG | None = None,
        *,
        analyst: str = _ANALYST,
        prover_factory=None,
        timeout: float | None = 60.0,
        reply_delay: float = 0.0,
    ) -> None:
        self.transport = transport
        self.rng = rng if rng is not None else SystemRNG()
        self.analyst = analyst
        self.prover_factory = prover_factory if prover_factory is not None else Prover
        self.timeout = timeout
        # Benchmark knob: sleep before every RPC reply, modelling a
        # remote prover's network/compute latency (the idle time an async
        # front-end overlaps across sessions).  Zero in production.
        self.reply_delay = reply_delay
        self.prover: Prover | None = None
        self._morra_values: list[int] = []
        self._morra_randomness: list[bytes] = []

    def run(self) -> None:
        """Serve one session: setup, RPC loop, shutdown."""
        self._setup()
        serve_requests(
            self.transport,
            self.analyst,
            self.timeout,
            lambda method, parts: self._reply(self._dispatch(method, parts)),
            lambda message: self._reply(wire.encode_abort_reply(message)),
        )

    def _reply(self, frame: bytes) -> None:
        if self.reply_delay:
            time.sleep(self.reply_delay)
        self.transport.send(self.analyst, frame)

    def _setup(self) -> None:
        frame = self.transport.recv(self.analyst, self.timeout)
        ctrl, parts = wire.decode_control(frame)
        if ctrl != "setup" or len(parts) != 3:
            raise ProtocolAbort("expected a setup frame", party=self.analyst)
        params = wire.decode_params(parts[0])
        plan = wire.decode_plan(parts[1])
        name = decode_utf8(parts[2], "prover name")
        self.prover = self.prover_factory(name, params, self.rng, plan=plan)
        self.transport.send(self.analyst, wire.encode_reply())

    # RPC dispatch -----------------------------------------------------------

    def _dispatch(self, method: str, parts: list[bytes]) -> bytes:
        prover = self.prover
        group = prover.params.group
        if method == "share-check":
            broadcast = decode_message(group, parts[0])
            share = decode_message(group, parts[1])
            ok = prover.receive_client_share(broadcast, share, bytes_to_int(parts[2]))
            return wire.encode_reply(b"\x01" if ok else b"\x00")
        if method == "absorb-clients":
            prover.absorb_validated_clients(
                wire.decode_str_list(parts[0]), discard=wire.decode_str_list(parts[1])
            )
            return wire.encode_reply()
        if method == "begin-coin-stream":
            prover.begin_coin_stream(parts[0])
            return wire.encode_reply()
        if method == "commit-coin-chunk":
            message = prover.commit_coin_chunk(bytes_to_int(parts[0]))
            return wire.encode_reply(encode_message(message))
        if method == "absorb-bits":
            prover.absorb_public_bits(wire.decode_bit_matrix(parts[0]))
            return wire.encode_reply()
        if method == "finish-output":
            return wire.encode_reply(encode_message(prover.finish_output()))
        if method == "morra-sample":
            q, count = bytes_to_int(parts[0]), bytes_to_int(parts[1])
            self._morra_values = prover.sample_values(q, count)
            # Count only: the contributions are secret until the reveal
            # round (hiding against the front-end).
            return wire.encode_reply(int_to_bytes(len(self._morra_values)))
        if method == "morra-commit":
            scheme = HashCommitmentScheme(parts[0])
            commitments, randomness = prover.commitments(scheme, self._morra_values)
            self._morra_randomness = randomness
            return wire.encode_reply(
                wire.encode_bytes_list([c.digest for c in commitments])
            )
        if method == "morra-reveal":
            response = prover.reveal(
                self._morra_values, self._morra_randomness, {}
            )
            if response is None:
                return wire.encode_abort_reply("prover went silent during reveal")
            values, randomness = response
            return wire.encode_reply(
                wire.encode_int_list(values), wire.encode_bytes_list(randomness)
            )
        return wire.encode_abort_reply(f"unknown rpc method {method!r}")


class AnalystNode:
    """The serving front-end: verifier plus the unchanged protocol engine.

    Builds parameters from a declarative query exactly as
    :class:`repro.api.Session` does, and owns the whole session skeleton
    every topology runs: peer set-up, the parameter announcement, the
    enrollment loop with its one validation routine, the release, peer
    shutdown and publication.  Sharding plugs into the four ``# hook``
    methods (:class:`repro.net.shard.ShardedAnalyst`); nothing else
    differs between S = 0 and S > 0.
    """

    def __init__(
        self,
        query: Query,
        transport: Transport,
        servers: list[str],
        *,
        group: str = "modp-2048",
        nb_override: int | None = None,
        chunk_size: int | None = None,
        rng: RNG | None = None,
        timeout: float | None = 60.0,
    ) -> None:
        if isinstance(query, ComposedQuery):
            raise ParameterError("composed queries are not served distributed yet")
        if not servers:
            raise ParameterError("need at least one server (K >= 1)")
        self.query = query
        self.transport = transport
        self.servers = list(servers)
        self.timeout = timeout
        self.rng = rng if rng is not None else SystemRNG()
        params = query.build_params(
            num_provers=len(servers), group=group, nb_override=nb_override
        )
        self.chunk_size, verifier = self._verification(params, chunk_size)
        self.engine = build_engine(
            query,
            num_provers=len(servers),
            params=params,
            provers=[
                RemoteProver(name, transport, params, timeout=timeout)
                for name in self.servers
            ],
            verifier=verifier,
            rng=self.rng,
            chunk_size=self.chunk_size,
        )
        self.params = self.engine.params
        self.plan = self.engine.plan
        self.result: EngineResult | None = None

    def run(self) -> EngineResult:
        """Serve one full session and return the engine result."""
        params_frame = wire.encode_params(self.params)
        plan_frame = wire.encode_plan(self.plan)
        peers = self._setup_peers(params_frame, plan_frame)
        self.transport.send(
            _CLIENTS, wire.encode_control("params", params_frame, plan_frame)
        )
        self._ingest()
        self.result = self.engine.run_release()
        # A prover whose stream was given up may still owe the replies to
        # its last chunk request and the Morra pair that rode with it;
        # shutdown_peers takes the next frame as the ack, so those
        # replies are read away first.
        grace = min(_SHUTDOWN_GRACE, self.timeout or _SHUTDOWN_GRACE)
        for prover in self.engine.provers:
            try:
                prover.drain(grace)
            except ProtocolAbort:
                pass  # shutdown_peers names a peer that stays silent
        # Peers shut down *before* the release is published: an
        # unresponsive peer's audit note must land in the bytes the
        # clients receive, not mutate the audit record of an
        # already-shipped release.
        shutdown_peers(self.transport, peers, self.timeout, self.engine.verifier.audit)
        self.transport.send(
            _CLIENTS,
            wire.encode_control("release", encode_message(self.result.release)),
        )
        return self.result

    @property
    def release(self) -> Release:
        if self.result is None:
            raise ParameterError("session has not released yet")
        return self.result.release

    # Enrollment ---------------------------------------------------------------

    def _ingest(self) -> None:
        """Accept enrollment bundles until the finalize control arrives.

        A hostile frame drops exactly that enrollment (with an audit
        note), never the session: a client cannot crash the front-end.
        """
        audit = self.engine.verifier.audit
        while True:
            frame = self.transport.recv(_CLIENTS, self.timeout)
            try:
                kind = wire.frame_kind(frame)
            except EncodingError:
                audit.note("dropped an unclassifiable frame")
                continue
            if kind == "ctrl":
                try:
                    ctrl, _ = wire.decode_control(frame)
                except EncodingError:
                    audit.note("dropped a malformed control frame")
                    continue
                if ctrl == "finalize":
                    self._finish_enrollment()
                    return
                raise ProtocolAbort(
                    f"unexpected control {ctrl!r} during enrollment",
                    party=_CLIENTS,
                )
            if kind != "enroll":
                raise ProtocolAbort(
                    f"unexpected {kind!r} frame during enrollment",
                    party=_CLIENTS,
                )
            enrollment = self._validated_enrollment(frame)
            if enrollment is None:
                continue
            try:
                self._admit(*enrollment)
            except ParameterError as exc:
                # Rule 6: a duplicate or reserved client id.
                client_id = enrollment[0].client_id
                audit.note(f"rejected enrollment from {client_id!r}: {exc}")

    def _validated_enrollment(self, frame: bytes):
        """The one enrollment validation routine, for every S.

        Rules run in this order and the first broken one decides the
        audit note, so a hostile bundle reads the same — and the release
        bytes match — whether or not the session is sharded:

        1. it decodes — else ``dropped undecodable enrollment: …``;
        2. it is a broadcast plus share messages — else ``dropped an
           enrollment with wrong message types``;
        3. one private share message per prover;
        4. share commitments shaped K provers × M coordinates (a prover
           indexing a missing row would abort blaming itself);
        5. every share message carries the broadcast's client id (a
           mismatch would raise inside an honest prover's check);
        6. the client id is new (checked at admission, in :meth:`_ingest`).

        Rules 3–6 note ``rejected enrollment from '<id>': <rule>``.
        Returns ``(broadcast, privates, broadcast frame)`` or ``None``.
        """
        audit = self.engine.verifier.audit
        params = self.params
        try:
            broadcast_frame, private_frames = wire.split_enrollment(frame)
            broadcast = decode_message(params.group, broadcast_frame)
            privates = [decode_message(params.group, raw) for raw in private_frames]
        except (EncodingError, NotOnGroupError, ValueError) as exc:
            audit.note(f"dropped undecodable enrollment: {exc}")
            return None
        if not isinstance(broadcast, ClientBroadcast) or not all(
            isinstance(m, ClientShareMessage) for m in privates
        ):
            audit.note("dropped an enrollment with wrong message types")
            return None
        if len(privates) != params.num_provers:
            rule = "one private share message per prover required"
        elif len(broadcast.share_commitments) != params.num_provers or any(
            len(row) != params.dimension for row in broadcast.share_commitments
        ):
            rule = "share commitments do not match K provers x M coordinates"
        elif any(m.client_id != broadcast.client_id for m in privates):
            rule = "private share client id does not match the broadcast"
        else:
            return broadcast, privates, broadcast_frame
        audit.note(f"rejected enrollment from {broadcast.client_id!r}: {rule}")
        return None

    # Sharding hooks (overridden by ShardedAnalyst) -----------------------------

    def _verification(self, params: PublicParams, chunk_size: int | None):
        """hook: the (chunk size, verifier) the engine runs with; ``None``
        is the engine's own :class:`~repro.core.verifier.PublicVerifier`."""
        return chunk_size, None

    def _setup_peers(self, params_frame: bytes, plan_frame: bytes) -> list[str]:
        """hook: ship setup frames; returns every peer to shut down later."""
        for name in self.servers:
            self.transport.send(
                name,
                wire.encode_control("setup", params_frame, plan_frame, name.encode()),
            )
            read_reply(self.transport, name, self.timeout, "server setup failed")
        return self.servers

    def _admit(self, broadcast, privates, broadcast_frame: bytes) -> None:
        """hook: enroll one validated bundle (raises ``ParameterError`` on
        a duplicate or reserved client id)."""
        self.engine.submit_prepared([(broadcast, privates)])

    def _finish_enrollment(self) -> None:
        """hook: the finalize control arrived."""


class ClientRunner:
    """Drives a population of clients against a serving front-end.

    Receives the parameter announcement, builds each client with the same
    name and forked randomness stream the in-process session would
    (``client-{i}``, fork of the shared root), wire-encodes its Line 2
    submission and ships it, then waits for the published release.
    """

    def __init__(
        self,
        transport: Transport,
        query: Query,
        values,
        *,
        rng: RNG | None = None,
        analyst: str = _ANALYST,
        timeout: float | None = 60.0,
        tamper=None,
    ) -> None:
        self.transport = transport
        self.query = query
        self.values = list(values)
        self.rng = rng if rng is not None else SystemRNG()
        self.analyst = analyst
        self.timeout = timeout
        self.tamper = tamper
        self.release: Release | None = None

    def run(self) -> Release:
        ctrl, parts = wire.decode_control(self.transport.recv(self.analyst, self.timeout))
        self._check_abort(ctrl, parts)
        if ctrl != "params" or not parts:
            raise ProtocolAbort("expected a params announcement", party=self.analyst)
        params = wire.decode_params(parts[0])
        for index, value in enumerate(self.values):
            name = f"client-{index}"
            client = (
                value
                if hasattr(value, "submit")
                else self.query.make_client(name, value, fork_rng(self.rng, name))
            )
            broadcast, privates = client.submit(params)
            frame = wire.encode_enrollment(broadcast, privates)
            if self.tamper is not None:
                frame = self.tamper(index, frame)
            self.transport.send(self.analyst, frame)
        self.transport.send(self.analyst, wire.encode_control("finalize"))
        ctrl, parts = wire.decode_control(self.transport.recv(self.analyst, self.timeout))
        self._check_abort(ctrl, parts)
        if ctrl != "release" or not parts:
            raise ProtocolAbort("expected the release", party=self.analyst)
        release = decode_message(params.group, parts[0])
        if not isinstance(release, Release):
            raise EncodingError("release frame carried a different message")
        self.release = release
        return release

    def _check_abort(self, ctrl: str, parts: list[bytes]) -> None:
        if ctrl == "abort":
            reason = decode_utf8(parts[0], "abort reason") if parts else "session aborted"
            raise ProtocolAbort(
                f"session aborted by front-end: {reason}", party=self.analyst
            )
