"""The coin phase as a two-stage pipeline: chunk c is checked while chunk
c+1 is being proved, and the analyst waits for no reply it does not need.

Three promises are pinned here.  *Structure*: the request for the next
chunk — with the Morra sample and commit requests that ride with it — is
on the wire before the check of this one starts, and its replies are
taken after the check returns; ``begin-coin-stream`` and ``absorb-bits``
replies are read later (a stream's last ``absorb-bits`` excepted); the
next prover's stream is opened when the one before it starts.  All of it
is asserted on the analyst's own frame log, no clock, while every peer
still gets the parent's frames and sends the parent's replies, in each
direction, byte for byte.  *Verdicts*: every cheating prover ends with
the status, note and ``accepted`` the lock-step engine gave it (the
values below were recorded at the parent commit), one Morra round later.
*Framing*: replies the engine never collects — the prover's stream was
given up — are drained before the shutdown handshake, on every transport.
"""

import collections
import dataclasses
import functools
import hashlib
import threading
import time
from multiprocessing import get_context

import pytest

from repro.api import ProtocolEngine
from repro.api.queries import CountQuery
from repro.core import prover as provers
from repro.core.bulletin import replay_audit
from repro.core.client import Client
from repro.core.messages import ProverStatus
from repro.crypto.sigma.batch import SigmaBatch
from repro.errors import EncodingError, ProtocolAbort, ReproError
from repro.net import wire
from repro.net.nodes import AnalystNode, RemoteProver, ServerNode, abort_peers
from repro.net.roles import dial, peer_rng, run_role
from repro.net.transport import (
    InMemoryHub,
    SocketTransport,
    Transport,
    multiprocess_star,
)
from repro.utils.rng import SeededRNG

NB = 16
QUERY = CountQuery(epsilon=1.0, delta=2**-10)
VALUES = [1, 0, 1, 1]
SERVERS = ["prover-0", "prover-1"]
TRANSPORTS = ["memory", "multiprocess", "socket"]


class ShortChunkProver(provers.Prover):
    """Answers every coin-chunk request with one coin too few."""

    def commit_coin_chunk(self, count):
        message = super().commit_coin_chunk(count)
        return dataclasses.replace(
            message, commitments=message.commitments[:-1], proofs=message.proofs[:-1]
        )


CHEATERS = {
    "biased": provers.BiasedCoinProver,
    "non-bit": provers.NonBitCoinProver,
    "skip-adjust": provers.SkipAdjustmentProver,
    "output-tamper": provers.OutputTamperingProver,
    "input-drop": functools.partial(provers.InputDroppingProver, victim="client-0"),
    "input-inject": provers.InputInjectingProver,
    "short-chunk": ShortChunkProver,
}

# Recorded at the parent commit (lock-step engine), identical there over
# chunk ∈ {None, 3, 4} × {ProtocolEngine, memory transport} and for the
# cheater as prover-0 or prover-1: (cheater's status, its note or None).
PARENT_VERDICTS = {
    "biased": ("HONEST", None),
    "non-bit": (
        "BAD_COIN_PROOF",
        "coin proof rejected at coin 0, coordinate 0 (challenge split e0 + e1 != e)",
    ),
    "skip-adjust": ("FAILED_FINAL_CHECK", "commitment product mismatch on coordinate 0"),
    "output-tamper": ("FAILED_FINAL_CHECK", "commitment product mismatch on coordinate 0"),
    "input-drop": ("FAILED_FINAL_CHECK", "commitment product mismatch on coordinate 0"),
    "input-inject": ("FAILED_FINAL_CHECK", "commitment product mismatch on coordinate 0"),
    "short-chunk": ("BAD_COIN_PROOF", "coin chunk is not the {count} coins asked for"),
}


class Recorder(Transport):
    """The analyst's transport, logging ``(direction, peer, frame)``."""

    def __init__(self, inner, log):
        super().__init__(inner.name)
        self.inner = inner
        self.log = log

    def _send(self, peer, frame):
        self.log.append(("send", peer, frame))
        self.inner.send(peer, frame)

    def _recv(self, peer, timeout):
        frame = self.inner.recv(peer, timeout)
        self.log.append(("recv", peer, frame))
        return frame

    def close(self):
        self.inner.close()


def _peer_main(name, channel, seed, server_cls, factory, timeout):
    """``roles.run_role`` with a choice of server class and prover."""
    if name == "clients":
        run_role("clients", name, channel, seed=seed, query=QUERY, values=VALUES, timeout=timeout)
        return
    transport = channel() if callable(channel) else channel
    try:
        server_cls(
            transport, peer_rng(seed, name), prover_factory=factory, timeout=timeout
        ).run()
    except (ReproError, SystemExit):
        pass  # the analyst attributes a peer that falls silent
    finally:
        transport.close()


def run_session(
    kind, seed, *, factories=None, server_classes=None, chunk=None, timeout=60.0, log=None
):
    """One K = 2 session over ``kind`` with per-server prover factories
    (threads on ``memory``, forked processes otherwise).  Returns
    ``(result, frame log, workers)``; the workers have been joined and a
    ProtocolAbort out of the analyst frees them with ``abort_peers`` first.
    """
    names = SERVERS + ["clients"]
    spawn = get_context("fork").Process
    if kind == "memory":
        hub = InMemoryHub()
        inner = hub.endpoint("analyst")
        channels = {name: hub.endpoint(name) for name in names}
        spawn = threading.Thread
    elif kind == "multiprocess":
        inner, channels = multiprocess_star("analyst", names)
    else:
        inner = SocketTransport.listen("analyst")
        channels = {name: dial(name, "127.0.0.1", inner.port) for name in names}
    workers = [
        spawn(
            target=_peer_main,
            args=(
                name,
                channels[name],
                seed,
                (server_classes or {}).get(name, ServerNode),
                (factories or {}).get(name),
                timeout,
            ),
            name=name,
            daemon=True,
        )
        for name in names
    ]
    for worker in workers:
        worker.start()
    if kind == "multiprocess":
        for channel in channels.values():
            channel.close()
    elif kind == "socket":
        inner.accept(len(workers), 30.0, expected=names)
    log = [] if log is None else log
    transport = Recorder(inner, log)
    analyst = AnalystNode(
        QUERY,
        transport,
        SERVERS,
        group="p64-sim",
        nb_override=NB,
        chunk_size=chunk,
        rng=SeededRNG(seed),
        timeout=timeout,
    )
    try:
        result = analyst.run()
    except ProtocolAbort:
        abort_peers(transport, SERVERS, "test", clients_peer="clients")
        raise
    finally:
        for worker in workers:
            worker.join(timeout=10.0)
        transport.close()
    return result, log, workers


def methods_sent_to(log, peer):
    """The request sequence one peer saw: rpc methods and control kinds."""
    names = []
    for direction, to, frame in log:
        if direction == "send" and to == peer:
            kind = wire.frame_kind(frame)
            decode = wire.decode_rpc if kind == "rpc" else wire.decode_control
            names.append(decode(frame)[0])
    return names


def engine_release(cheater, position, chunk):
    seed = f"verdicts-{cheater}"
    rng = SeededRNG(seed)
    params = QUERY.build_params(num_provers=2, group="p64-sim", nb_override=NB)
    cast = [
        (CHEATERS[cheater] if k == position else provers.Prover)(
            name, params, rng.fork(name)
        )
        for k, name in enumerate(SERVERS)
    ]
    engine = ProtocolEngine(params, provers=cast, rng=rng, chunk_size=chunk)
    engine.submit_clients(
        Client(f"client-{i}", [v], rng.fork(f"client-{i}")) for i, v in enumerate(VALUES)
    )
    return params, engine.run_release()


class TestSameVerdictsOneRoundLater:
    @pytest.mark.parametrize("path", ["engine", "memory"])
    @pytest.mark.parametrize("chunk", [None, 3, NB // 4])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("cheater", sorted(CHEATERS))
    def test_status_note_and_acceptance_are_the_parents(
        self, cheater, position, chunk, path
    ):
        if path == "engine":
            release = engine_release(cheater, position, chunk)[1].release
        else:
            release = run_session(
                "memory",
                f"verdicts-{cheater}",
                factories={SERVERS[position]: CHEATERS[cheater]},
                chunk=chunk,
            )[0].release
        status, note = PARENT_VERDICTS[cheater]
        name, other = SERVERS[position], SERVERS[1 - position]
        assert release.accepted == (status == "HONEST")
        assert release.audit.provers == {
            name: ProverStatus[status],
            other: ProverStatus.HONEST,
        }
        expected = [] if note is None else [f"{name}: " + note.format(count=chunk or NB)]
        assert release.audit.notes == expected

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("cheater", sorted(set(CHEATERS) - {"short-chunk"}))
    def test_replayed_board_names_the_parties_the_live_run_named(
        self, cheater, position
    ):
        """The one-chunk run publishes what it checked one round late —
        including the cheater's Morra bits — and the third-party replay
        reaches the live verdicts from those bytes."""
        params, result = engine_release(cheater, position, None)
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.provers == result.release.audit.provers
        assert replayed.notes == result.release.audit.notes

    def test_wrong_size_chunk_never_reaches_morra_so_its_board_has_no_bits(self):
        """Unchanged from the parent: the size check is part of the hold,
        before the Morra round, and a board without that prover's bits is
        a broken board to the replayer, not a verdict."""
        params, result = engine_release("short-chunk", 0, None)
        assert "prover-0" not in result.public_bits
        with pytest.raises(EncodingError, match="morra-bits/prover-0"):
            replay_audit(params, result.to_bulletin(params))


def exchanges(log):
    """Per ``(server, method)``, ``[log index sent, log index its reply
    was read]`` for each request in order — a server answers its requests
    in the order they arrive, so its replies pair with them first in,
    first out."""
    pending = collections.defaultdict(collections.deque)
    out = collections.defaultdict(list)
    for index, (direction, peer, frame) in enumerate(log):
        if peer not in SERVERS:
            continue
        if direction == "send":
            kind = wire.frame_kind(frame)
            decode = wire.decode_rpc if kind == "rpc" else wire.decode_control
            entry = [index, None]
            out[peer, decode(frame)[0]].append(entry)
            pending[peer].append(entry)
        elif direction == "recv":
            pending[peer].popleft()[1] = index
    return out


def frame_digests(log, peer):
    """SHA-256 (first 16 hex digits) of the frames sent to ``peer`` and
    of those received from it, each in order."""
    digests = []
    for direction in ("send", "recv"):
        h = hashlib.sha256()
        for d, other, frame in log:
            if d == direction and other == peer:
                h.update(len(frame).to_bytes(4, "big") + frame)
        digests.append(h.hexdigest()[:16])
    return tuple(digests)


# (sent, received) frame digests per peer of the seeded session below,
# recorded at the parent commit — identical there over memory,
# multiprocess and socket.  The schedule moves when the analyst sends and
# reads, not one byte or one frame of any peer's conversation.
PARENT_FRAMES = {
    None: {
        "prover-0": ("8badf7d670f44e1d", "4399e24bce248b9f"),
        "prover-1": ("d1d4e0c499c9581a", "834700b7c6d476da"),
        "clients": ("ef307a67eecadfa8", "d16de37d7e38ea9b"),
    },
    3: {
        "prover-0": ("ae98c576922b13de", "a1bf74686d0aeeff"),
        "prover-1": ("e203f851e20a8c39", "314709f893fb8905"),
        "clients": ("413b3738b42e51e9", "d16de37d7e38ea9b"),
    },
    NB // 4: {
        "prover-0": ("f890332479679edb", "0427721eac1dd0dd"),
        "prover-1": ("df18a908996351e3", "ffe6ff9b665643b8"),
        "clients": ("fe0befa9774bb83a", "d16de37d7e38ea9b"),
    },
}


@pytest.mark.parametrize("chunk", sorted(PARENT_FRAMES, key=str))
@pytest.mark.parametrize("kind", TRANSPORTS)
def test_each_peer_gets_and_sends_the_parents_frames(kind, chunk):
    result, log, _ = run_session(kind, "frames", chunk=chunk)
    assert result.release.accepted
    for peer, digests in PARENT_FRAMES[chunk].items():
        assert frame_digests(log, peer) == digests, peer


class TestOverlapIsStructural:
    CHUNK = 4
    PER_PROVER = NB // CHUNK
    STEPS = 2 * PER_PROVER

    @pytest.fixture()
    def traced(self, monkeypatch):
        """The analyst's frame log of one honest session, with the start
        and end of every coin-phase ``SigmaBatch.verify`` spliced in."""
        log = []
        inner_verify = SigmaBatch.verify

        def verify(batch):
            # Server threads share the class; only the analyst's calls count.
            mine = threading.current_thread() is threading.main_thread()
            if mine:
                log.append(("verify-start", None, b""))
            try:
                return inner_verify(batch)
            finally:
                if mine:
                    log.append(("verify-end", None, b""))

        monkeypatch.setattr(SigmaBatch, "verify", verify)
        result, _, workers = run_session("memory", "frames", chunk=self.CHUNK, log=log)
        assert result.release.accepted
        assert not any(worker.is_alive() for worker in workers)
        return log

    def test_next_request_leaves_before_the_check_and_is_read_after_it(self, traced):
        ex = exchanges(traced)
        (begin,) = ex["prover-0", "begin-coin-stream"]
        # Client validation batches before the coin phase are not checks.
        starts = [i for i, (d, _, _) in enumerate(traced) if d == "verify-start" and i > begin[0]]
        ends = [i for i, (d, _, _) in enumerate(traced) if d == "verify-end" and i > begin[0]]
        assert len(starts) == len(ends) == self.STEPS
        ahead = ("commit-coin-chunk", "morra-sample", "morra-commit")

        def rpc(step, method):
            return ex[SERVERS[step // self.PER_PROVER], method][step % self.PER_PROVER]

        for step in range(self.STEPS):
            chunk, sample, commit = (rpc(step, method) for method in ahead)
            reveal, absorb = rpc(step, "morra-reveal"), rpc(step, "absorb-bits")
            # The Morra pair rides with the chunk request, and the round
            # costs one round trip: sample and commit replies are read in
            # the Morra round, the reveal waited for, then the bits sent —
            # all before this chunk's check.
            assert chunk[0] + 2 == sample[0] + 1 == commit[0]
            assert chunk[1] < sample[1] < commit[1] < reveal[0] < reveal[1] < absorb[0]
            assert absorb[0] < starts[step]
            last = (step + 1) % self.PER_PROVER == 0
            if last:
                # Nothing else is read from this server before its output.
                assert absorb[1] < starts[step]
            if step + 1 < self.STEPS:
                after = [rpc(step + 1, method) for method in ahead]
                # The next chunk (and its Morra pair) is asked for before
                # this check starts, and read only after it ends.
                assert all(sent < starts[step] for sent, _ in after), f"step {step}"
                assert all(read > ends[step] for _, read in after), f"step {step}"
            if step + 1 < self.STEPS and not last:
                # One pending chunk per server: asked after the bits of the
                # one before, whose empty reply is read late.
                assert absorb[0] < after[0][0]
                assert absorb[1] > ends[step]
        for peer in SERVERS:
            # begin-coin-stream is not waited for either.
            (begin,) = ex[peer, "begin-coin-stream"]
            first = ex[peer, "commit-coin-chunk"][0]
            assert begin[0] + 1 == first[0]
        # Prover 1's stream opens when prover 0's starts: its first chunk
        # is asked for before prover 0's first one is read.
        assert ex["prover-1", "commit-coin-chunk"][0][0] < ex["prover-0", "commit-coin-chunk"][0][1]

    def test_every_peer_sees_the_parents_conversation(self, traced):
        lap = [
            "commit-coin-chunk",
            "morra-sample",
            "morra-commit",
            "morra-reveal",
            "absorb-bits",
        ]
        expected = (
            ["setup"]
            + ["share-check"] * len(VALUES)
            + ["absorb-clients", "begin-coin-stream"]
            + lap * (NB // self.CHUNK)
            + ["finish-output", "shutdown"]
        )
        ex = exchanges(traced)
        for peer in SERVERS:
            assert methods_sent_to(traced, peer) == expected
            # Every request has had its reply read.
            reads = [read for (to, _), pairs in ex.items() if to == peer for _, read in pairs]
            assert None not in reads
        for peer, digests in PARENT_FRAMES[self.CHUNK].items():
            assert frame_digests(traced, peer) == digests, peer


class TestAbandonedRequest:
    @pytest.mark.parametrize("chunk", [NB // 4, 3])
    @pytest.mark.parametrize("cheater", ["non-bit", "short-chunk"])
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_given_up_stream_is_settled_before_shutdown(self, kind, cheater, chunk):
        """prover-0 fails chunk 0 (its proofs one Morra round late, with
        chunk 1 already asked for; its size at the hold): the session still
        releases promptly, blames only prover-0, and every frame sent to a
        server has been answered by exactly one frame when it ends — the
        last one the shutdown ack, not a stale chunk."""
        start = time.monotonic()
        result, log, workers = run_session(
            kind, f"abandon-{cheater}", factories={"prover-0": CHEATERS[cheater]},
            chunk=chunk,
        )
        assert time.monotonic() - start < 10.0
        assert not any(worker.is_alive() for worker in workers)
        audit = result.release.audit
        assert not result.release.accepted
        assert audit.provers == {
            "prover-0": ProverStatus.BAD_COIN_PROOF,
            "prover-1": ProverStatus.HONEST,
        }
        assert not any("unresponsive at shutdown" in note for note in audit.notes)
        for peer in SERVERS:
            sent = [frame for d, to, frame in log if d == "send" and to == peer]
            received = [frame for d, to, frame in log if d == "recv" and to == peer]
            assert len(sent) == len(received)
            assert received[-1] == wire.encode_reply()
        asked = methods_sent_to(log, "prover-0").count("commit-coin-chunk")
        assert asked == (2 if cheater == "non-bit" else 1)
        assert methods_sent_to(log, "prover-1").count("commit-coin-chunk") == -(-NB // chunk)

    def test_any_other_call_settles_an_uncollected_request_first(self):
        """Every read from a peer first reads what that peer owes, in
        order: a new stream gives the old one's sent-ahead chunk and Morra
        pair up, and the next collection reads them away (with both
        streams' empty ``begin-coin-stream`` replies) before its own, so
        every later reply still answers the frame it follows."""
        params = QUERY.build_params(num_provers=1, group="p64-sim", nb_override=NB)
        hub = InMemoryHub()
        node = ServerNode(hub.endpoint("prover-0"), SeededRNG("settle"), timeout=10.0)
        thread = threading.Thread(target=node.run, daemon=True)
        thread.start()
        log = []
        analyst = Recorder(hub.endpoint("analyst"), log)
        analyst.send(
            "prover-0",
            wire.encode_control(
                "setup",
                wire.encode_params(params),
                wire.encode_plan(QUERY.build_plan()),
                b"prover-0",
            ),
        )
        analyst.recv("prover-0", 10.0)
        proxy = RemoteProver("prover-0", analyst, params, timeout=10.0)
        proxy.begin_coin_stream(b"ctx")
        proxy.request_coin_chunk(4, 4)
        proxy.begin_coin_stream(b"ctx")  # gives the first stream up
        assert [d for d, _, _ in log[2:]] == ["send"] * 5  # nothing read yet
        assert len(proxy.commit_coin_chunk(4).commitments) == 4
        assert [d for d, _, _ in log[2:]] == ["send"] * 6 + ["recv"] * 6
        assert log[-2] == ("recv", "prover-0", wire.encode_reply())
        analyst.send("prover-0", wire.encode_control("shutdown"))
        assert analyst.recv("prover-0", 10.0) == wire.encode_reply()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_server_killed_with_a_request_outstanding_is_named(self):
        """prover-1 dies on its second chunk request, which the analyst
        sent before checking the first chunk: the abort names prover-1,
        and ``abort_peers`` frees everyone else at once."""
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as err:
            run_session(
                "memory",
                "killed",
                server_classes={"prover-1": _DiesOnSecondChunk},
                chunk=NB // 4,
                timeout=2.0,
            )
        assert err.value.party == "prover-1"
        assert time.monotonic() - start < 10.0
        assert not [
            thread for thread in threading.enumerate() if thread.name in SERVERS + ["clients"]
        ]


class _DiesOnSecondChunk(ServerNode):
    chunks = 0

    def _dispatch(self, method, parts):
        if method == "commit-coin-chunk":
            self.chunks += 1
            if self.chunks == 2:
                raise SystemExit
        return super()._dispatch(method, parts)
