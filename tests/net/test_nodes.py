"""Distributed role nodes: byte-identical releases and wire-level attacks.

The acceptance bar of the redesign: a 2-server multi-client session run
as separate OS processes produces a release byte-identical to the
in-process :class:`repro.api.Session` under seeded RNG, over both
``MultiprocessTransport`` and ``SocketTransport``; and a tampered frame
is rejected with the correct party named by the existing
snapshot-replay pinpointing.
"""

import functools
import threading

import pytest

from repro.api.queries import BoundedSumQuery, CountQuery, HistogramQuery
from repro.api.session import Session
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.prover import OutputTamperingProver
from repro.crypto.serialization import encode_message
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode
from repro.net.serve import run_distributed_session
from repro.net.transport import InMemoryHub, Transport, multiprocess_star
from repro.utils.rng import SeededRNG

DELTA = 2**-10


def in_process_release_bytes(query, values, *, seed, num_servers=2, nb=32, chunk=None):
    session = Session(
        query,
        num_provers=num_servers,
        group="p64-sim",
        nb_override=nb,
        chunk_size=chunk,
        rng=SeededRNG(seed),
    )
    session.submit(values)
    return encode_message(session.release().release)


class TestEquivalence:
    @pytest.mark.parametrize("transport", ["memory", "multiprocess", "socket"])
    def test_two_server_count_session_byte_identical(self, transport):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        values = [1, 0, 1, 1, 0, 1, 1]
        outcome = run_distributed_session(
            query,
            values,
            transport=transport,
            num_servers=2,
            group="p64-sim",
            nb_override=32,
            seed="equiv",
        )
        assert outcome["accepted"]
        assert outcome["byte_identical"]
        assert encode_message(outcome["release"]) == in_process_release_bytes(
            query, values, seed="equiv"
        )

    def test_streamed_histogram_byte_identical_multiprocess(self):
        query = HistogramQuery(bins=3, epsilon=1.0, delta=DELTA)
        values = [0, 1, 2, 1, 1, 0]
        outcome = run_distributed_session(
            query,
            values,
            transport="multiprocess",
            num_servers=2,
            group="p64-sim",
            nb_override=32,
            chunk_size=8,
            seed="equiv-hist",
        )
        assert outcome["accepted"] and outcome["byte_identical"]

    def test_bounded_sum_single_server_memory(self):
        query = BoundedSumQuery(value_bits=3, epsilon=2.0, delta=DELTA)
        values = [5, 2, 7, 0]
        outcome = run_distributed_session(
            query,
            values,
            transport="memory",
            num_servers=1,
            group="p64-sim",
            nb_override=16,
            seed="equiv-sum",
        )
        assert outcome["accepted"] and outcome["byte_identical"]

    def test_unseeded_run_accepts(self):
        outcome = run_distributed_session(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="memory",
            num_servers=2,
            nb_override=16,
            seed=None,
        )
        assert outcome["accepted"]
        assert "byte_identical" not in outcome

    def test_front_end_traffic_accounted(self):
        outcome = run_distributed_session(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="memory",
            num_servers=2,
            nb_override=16,
            seed="traffic",
        )
        assert outcome["frontend_bytes_sent"] > 0
        assert outcome["frontend_bytes_received"] > outcome["frontend_bytes_sent"]


class _TamperFirstLargeReply(Transport):
    """Wraps a transport; bit-flips the first large frame from ``target``.

    The flip lands in the trailing scalar of the last Σ-OR proof of the
    prover's coin message — structurally valid, cryptographically wrong —
    modelling in-flight corruption or a tampering relay.
    """

    def __init__(self, inner: Transport, target: str, threshold: int = 800) -> None:
        super().__init__(inner.name)
        self._inner = inner
        self._target = target
        self._threshold = threshold
        self.tampered = 0

    def _send(self, peer, frame):
        self._inner.send(peer, frame)

    def _recv(self, peer, timeout):
        frame = self._inner.recv(peer, timeout)
        if peer == self._target and not self.tampered and len(frame) > self._threshold:
            frame = frame[:-1] + bytes([frame[-1] ^ 0x01])
            self.tampered += 1
        return frame

    def close(self):
        self._inner.close()


class TestWireTampering:
    def _run_tampered_prover_session(self, chunk_size):
        """Multiprocess session; prover-1's first coin frame is bit-flipped."""
        from multiprocessing import get_context

        from repro.net.roles import peer_roles, run_role

        query = CountQuery(epsilon=1.0, delta=DELTA)
        values = [1, 0, 1, 1]
        seed = "tamper"
        server_names = ["prover-0", "prover-1"]
        center, peers = multiprocess_star("analyst", server_names + ["clients"])
        context = get_context("fork")
        processes = [
            context.Process(
                target=run_role,
                args=(role, name, peers[name]),
                kwargs=dict(seed=seed, query=query, values=values),
                daemon=True,
            )
            for role, name in peer_roles(2, 0)
        ]
        for process in processes:
            process.start()
        for peer in peers.values():
            peer.close()
        tampering = _TamperFirstLargeReply(center, "prover-1")
        analyst = AnalystNode(
            query,
            tampering,
            server_names,
            group="p64-sim",
            nb_override=32,
            chunk_size=chunk_size,
            rng=SeededRNG(seed),
            timeout=60.0,
        )
        result = analyst.run()
        for process in processes:
            process.join(timeout=30.0)
        assert tampering.tampered == 1, "tamper hook never fired"
        return result

    @pytest.mark.parametrize("chunk_size", [8, None])
    def test_tampered_coin_frame_names_the_prover(self, chunk_size):
        """Bit-flipped proof bytes → rejected, prover-1 pinpointed.

        Four chunks of 8 or one of nb: the chunk's batch rejects and the
        snapshot replay must name the exact coin in the audit note.
        """
        result = self._run_tampered_prover_session(chunk_size)
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-1"] is ProverStatus.BAD_COIN_PROOF
        assert release.audit.provers["prover-0"] is ProverStatus.HONEST
        assert any(
            "prover-1" in note and "coin proof rejected at coin" in note
            for note in release.audit.notes
        ), release.audit.notes

    def test_tampered_enrollment_names_the_client(self):
        """A bit-flip inside a client's validity proof excludes exactly
        that client (INVALID_PROOF); the session still releases."""
        from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed

        def tamper(index, frame):
            if index != 2:
                return frame
            parts = decode_length_prefixed(frame)
            # parts[1] is the broadcast frame; its trailing bytes are the
            # last scalar of the validity proof.
            broadcast = parts[1]
            parts[1] = broadcast[:-1] + bytes([broadcast[-1] ^ 0x01])
            return encode_length_prefixed(*parts)

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted  # corrupt clients are excluded, not fatal
        assert release.audit.clients["client-2"] is ClientStatus.INVALID_PROOF
        assert release.audit.clients["client-0"] is ClientStatus.VALID

    def test_tampered_share_message_names_the_client(self):
        """A bit-flip in a private share opening → BAD_OPENING for that
        client via the receiving prover's complaint."""
        def tamper(index, frame):
            if index != 1:
                return frame
            return frame[:-1] + bytes([frame[-1] ^ 0x01])

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted
        assert release.audit.clients["client-1"] is ClientStatus.BAD_OPENING

    def test_undecodable_enrollment_dropped_not_fatal(self):
        """A frame corrupted beyond decoding (truncated mid-structure)
        drops that enrollment with an audit note; the session survives."""
        def tamper(index, frame):
            return frame[:-40] if index == 2 else frame

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted
        assert "client-2" not in release.audit.clients
        assert any("dropped" in note for note in release.audit.notes)
        assert release.audit.clients["client-3"] is ClientStatus.VALID

    def test_short_broadcast_enrollment_dropped_not_fatal(self):
        """A well-formed hostile enrollment whose broadcast declares
        fewer share-commitment rows than K provers is rejected at ingest
        with an audit note — it must never reach the share-check RPCs,
        where an IndexError would abort the session blaming the honest
        prover."""
        import dataclasses

        from repro.net import wire

        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=2, group="p64-sim", nb_override=16)

        def tamper(index, frame):
            if index != 2:
                return frame
            broadcast, privates = wire.decode_enrollment(params.group, frame)
            hostile = dataclasses.replace(
                broadcast, share_commitments=broadcast.share_commitments[:1]
            )
            return wire.encode_enrollment(hostile, privates)

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted
        assert "client-2" not in release.audit.clients
        assert any(
            "rejected enrollment" in note and "client-2" in note
            for note in release.audit.notes
        ), release.audit.notes
        assert all(
            status is ProverStatus.HONEST
            for status in release.audit.provers.values()
        )

    def test_mismatched_share_id_enrollment_dropped_not_fatal(self):
        """A private share message whose client_id differs from its
        broadcast would raise ParameterError inside the prover's check
        (blaming the honest prover); it must be rejected at ingest."""
        import dataclasses

        from repro.net import wire

        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=2, group="p64-sim", nb_override=16)

        def tamper(index, frame):
            if index != 2:
                return frame
            broadcast, privates = wire.decode_enrollment(params.group, frame)
            privates[0] = dataclasses.replace(privates[0], client_id="evil")
            return wire.encode_enrollment(broadcast, privates)

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted
        assert "client-2" not in release.audit.clients
        assert any(
            "rejected enrollment" in note and "client-2" in note
            for note in release.audit.notes
        ), release.audit.notes

    def test_duplicate_client_id_dropped_not_fatal(self):
        """A replayed enrollment (same client id twice) is rejected with
        an audit note instead of crashing the front-end."""
        frames = {}

        def tamper(index, frame):
            frames[index] = frame
            return frames[0] if index == 2 else frame  # replay client-0

        release = self._run_memory_session_with_client_tamper(tamper)
        assert release.accepted
        assert any("rejected enrollment" in note for note in release.audit.notes)
        assert release.audit.clients["client-0"] is ClientStatus.VALID

    def _run_memory_session_with_client_tamper(self, tamper):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        hub = InMemoryHub()
        seed = "client-tamper"
        server_names = ["prover-0", "prover-1"]
        threads = []
        for name in server_names:
            node = ServerNode(hub.endpoint(name), SeededRNG(seed).fork(name))
            threads.append(threading.Thread(target=node.run, daemon=True))
        runner = ClientRunner(
            hub.endpoint("clients"),
            query,
            [1, 0, 1, 1],
            rng=SeededRNG(seed),
            tamper=tamper,
        )
        threads.append(threading.Thread(target=runner.run, daemon=True))
        for thread in threads:
            thread.start()
        analyst = AnalystNode(
            query,
            hub.endpoint("analyst"),
            server_names,
            group="p64-sim",
            nb_override=16,
            rng=SeededRNG(seed),
        )
        result = analyst.run()
        for thread in threads:
            thread.join(timeout=10.0)
        return result.release


class TestRemoteProverRobustness:
    def _proxy(self):
        from repro.net.nodes import RemoteProver

        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=16)
        hub = InMemoryHub()
        analyst = hub.endpoint("analyst")
        server = hub.endpoint("prover-0")
        return RemoteProver("prover-0", analyst, params, timeout=5.0), server

    def test_garbage_reply_aborts_with_server_named(self):
        """An undecodable reply frame is the server's fault: ProtocolAbort
        naming it, never a raw EncodingError crashing the front-end — also
        when it answers a request sent ahead (``begin-coin-stream`` is not
        waited for): the next read from that server reads it first."""
        from repro.errors import ProtocolAbort

        proxy, server = self._proxy()
        server.send("analyst", b"garbage")
        proxy.begin_coin_stream(b"ctx")
        assert proxy.transport.frames_received == 0
        with pytest.raises(ProtocolAbort) as err:
            proxy.commit_coin_chunk(4)
        assert err.value.party == "prover-0"
        assert "begin-coin-stream" in str(err.value)

    def test_garbage_message_in_ok_reply_aborts_with_server_named(self):
        from repro.errors import ProtocolAbort
        from repro.net import wire

        proxy, server = self._proxy()
        server.send("analyst", wire.encode_reply(b"not-a-message"))
        with pytest.raises(ProtocolAbort) as err:
            proxy.finish_output()
        assert err.value.party == "prover-0"


class TestMorraHiding:
    def test_sample_rpc_reveals_only_a_count(self):
        """The morra-sample reply must not carry the server's secret
        contributions — only their count.  Shipping the values would let
        a malicious front-end see every contribution before the commit
        round, voiding the commit-reveal's hiding."""
        from repro.net import wire
        from repro.utils.encoding import int_to_bytes

        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=16)
        hub = InMemoryHub()
        node = ServerNode(hub.endpoint("prover-0"), SeededRNG("morra").fork("prover-0"))
        thread = threading.Thread(target=node.run, daemon=True)
        thread.start()
        analyst = hub.endpoint("analyst")
        analyst.send(
            "prover-0",
            wire.encode_control(
                "setup",
                wire.encode_params(params),
                wire.encode_plan(query.build_plan()),
                b"prover-0",
            ),
        )
        ok, _ = wire.decode_reply(analyst.recv("prover-0", 10.0))
        assert ok
        analyst.send(
            "prover-0",
            wire.encode_rpc("morra-sample", int_to_bytes(1009), int_to_bytes(5)),
        )
        ok, parts = wire.decode_reply(analyst.recv("prover-0", 10.0))
        assert ok
        assert parts == [int_to_bytes(5)]
        analyst.send("prover-0", wire.encode_control("shutdown"))
        analyst.recv("prover-0", 10.0)
        thread.join(timeout=10.0)


class TestCheatingProverOverTheWire:
    def test_output_tampering_prover_caught(self):
        """A server hosting OutputTamperingProver fails Line 13 across the
        wire exactly as in process."""
        query = CountQuery(epsilon=1.0, delta=DELTA)
        hub = InMemoryHub()
        seed = "cheat"
        server_names = ["prover-0", "prover-1"]
        factories = {
            "prover-0": None,
            "prover-1": functools.partial(OutputTamperingProver, bias=7),
        }
        threads = []
        for name in server_names:
            node = ServerNode(
                hub.endpoint(name),
                SeededRNG(seed).fork(name),
                prover_factory=factories[name],
            )
            threads.append(threading.Thread(target=node.run, daemon=True))
        runner = ClientRunner(
            hub.endpoint("clients"), query, [1, 0, 1], rng=SeededRNG(seed)
        )
        threads.append(threading.Thread(target=runner.run, daemon=True))
        for thread in threads:
            thread.start()
        analyst = AnalystNode(
            query,
            hub.endpoint("analyst"),
            server_names,
            group="p64-sim",
            nb_override=16,
            rng=SeededRNG(seed),
        )
        release = analyst.run().release
        for thread in threads:
            thread.join(timeout=10.0)
        assert not release.accepted
        assert release.audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK
        assert release.audit.provers["prover-0"] is ProverStatus.HONEST
        # The client runner received the same (rejected) release.
        assert runner.release is not None
        assert encode_message(runner.release) == encode_message(release)
