"""The coin phase as a two-stage pipeline: chunk c is checked while chunk
c+1 is being proved.

Three promises are pinned here.  *Structure*: the request for the next
chunk is on the wire before the check of this one starts and its reply
is taken after the check returns — asserted on the analyst's own frame
log, no clock — while every peer still sees the parent's method sequence
and the parent's bytes.  *Verdicts*: every cheating prover ends with the
status, note and ``accepted`` the lock-step engine gave it (the values
below were recorded at the parent commit), one Morra round later.
*Framing*: a request the engine never collects — the prover's stream was
given up — is drained before the shutdown handshake, on every transport.
"""

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


# SHA-256 over every frame the analyst exchanged with each peer of the
# seeded session below (direction byte + frame, in order), recorded at
# the parent commit: the pipeline reorders the analyst's *work*, not one
# byte or one frame of any peer's conversation.
PARENT_CONVERSATIONS = {
    "prover-0": "f2943e18fdb701974aa50918fbad18d9489dc5d649df85f1d6127a345f4af7e9",
    "prover-1": "173d3bc5023f4f76b4264a60990f36a8d723427c468ee361a408b8682f3de66f",
    "clients": "e51580008d9e86b9f7ac2ae29decf94750939987e09a6f78096521f032e2cc6d",
}


class TestOverlapIsStructural:
    CHUNK = 4
    STEPS = 2 * NB // CHUNK

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
        result, _, workers = run_session("memory", "overlap", chunk=self.CHUNK, log=log)
        assert result.release.accepted
        assert not any(worker.is_alive() for worker in workers)
        return log

    def test_next_request_leaves_before_the_check_and_is_read_after_it(self, traced):
        begun = next(
            i
            for i, (direction, _, frame) in enumerate(traced)
            if direction == "send" and wire.frame_kind(frame) == "rpc"
            and wire.decode_rpc(frame)[0] == "begin-coin-stream"
        )
        requests, replies, begins, starts, ends = [], [], {}, [], []
        awaiting = {}
        for index, (direction, peer, frame) in enumerate(traced):
            if index < begun:
                continue  # client validation batches are not coin checks
            if direction == "verify-start":
                starts.append(index)
            elif direction == "verify-end":
                ends.append(index)
            elif direction == "send" and wire.frame_kind(frame) == "rpc":
                method = wire.decode_rpc(frame)[0]
                if method == "commit-coin-chunk":
                    assert peer not in awaiting, "two requests outstanding"
                    requests.append(index)
                    awaiting[peer] = True
                elif method == "begin-coin-stream":
                    begins[peer] = index
                else:
                    assert peer not in awaiting, f"{method} sent over a request"
            elif direction == "recv" and awaiting.pop(peer, False):
                replies.append(index)
        assert len(requests) == len(replies) == self.STEPS
        assert len(starts) == len(ends) == self.STEPS
        for step in range(self.STEPS - 1):
            assert requests[step + 1] < starts[step], f"step {step}: check ran first"
            assert ends[step] < replies[step + 1], f"step {step}: reply read early"
        # Each check still follows its own chunk's arrival and Morra round.
        assert all(replies[step] < starts[step] for step in range(self.STEPS))
        # Prover 1 is opened and asked before prover 0's last check.
        last_of_first = self.STEPS // 2 - 1
        assert begins["prover-1"] < requests[last_of_first + 1] < starts[last_of_first]

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
        for peer in SERVERS:
            assert methods_sent_to(traced, peer) == expected
        for peer, digest in PARENT_CONVERSATIONS.items():
            conversation = hashlib.sha256()
            for direction, other, frame in traced:
                if other == peer:
                    conversation.update(direction[:1].encode() + frame)
            assert conversation.hexdigest() == digest, peer


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
        """One request may be outstanding per peer, never more: a call made
        over it reads the stale chunk away first, so every later reply
        still answers the frame it follows."""
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
        proxy.request_coin_chunk(4)
        proxy.begin_coin_stream(b"ctx")  # gives the first stream up
        assert log[-1] == ("recv", "prover-0", wire.encode_reply())
        assert len(proxy.commit_coin_chunk(4).commitments) == 4
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
