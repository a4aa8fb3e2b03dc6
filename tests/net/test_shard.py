"""Sharded serving: merged releases and cross-shard cheater pinpointing.

The acceptance bar of the sharding layer: a session served through a
:class:`~repro.net.shard.ShardedAnalyst` with S shard workers releases
*byte-identically* to the unsharded in-process :class:`repro.api.Session`
under seeded RNG (S ∈ {1, 2, 4}, all transports), and a cheat caught by
one shard — a tampered coin frame, a bad validity proof — is pinpointed
with the right prover/client named while honest parties (and the other
shards' work) are unaffected.
"""

import threading

import pytest

from repro.api.queries import BoundedSumQuery, CountQuery, HistogramQuery
from repro.api.session import Session
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.prover import (
    InputDroppingProver,
    NonBitCoinProver,
    OutputTamperingProver,
    Prover,
)
from repro.core.verifier import PublicVerifier
from repro.crypto.serialization import decode_message, encode_message
from repro.errors import ProtocolAbort
from repro.net import wire
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode, abort_peers
from repro.net.roles import build_analyst
from repro.net.serve import run_distributed_session
from repro.net.shard import ShardWorker
from repro.net.transport import InMemoryHub, Transport
from repro.utils.encoding import encode_length_prefixed, int_to_bytes
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


def run_sharded_memory(
    query,
    values,
    *,
    seed="shard",
    num_servers=2,
    shards=2,
    nb=32,
    chunk_size=8,
    prover_factory_for=None,
    tamper=None,
    wrap_analyst_transport=None,
):
    """One full session over the in-memory hub (node threads); ``shards=0``
    is the unsharded front-end."""
    hub = InMemoryHub()
    threads = []
    for k in range(num_servers):
        name = f"prover-{k}"
        factory = prover_factory_for(k) if prover_factory_for else Prover
        node = ServerNode(
            hub.endpoint(name),
            SeededRNG(seed).fork(name),
            prover_factory=factory,
            timeout=30.0,
        )
        threads.append(threading.Thread(target=node.run, name=name, daemon=True))
    shard_names = [f"shard-{s}" for s in range(shards)]
    for name in shard_names:
        worker = ShardWorker(hub.endpoint(name), timeout=30.0)
        threads.append(threading.Thread(target=worker.run, name=name, daemon=True))
    runner = ClientRunner(
        hub.endpoint("clients"),
        query,
        values,
        rng=SeededRNG(seed),
        timeout=30.0,
        tamper=tamper,
    )

    def run_clients():
        try:
            runner.run()
        except ProtocolAbort:
            pass  # the front-end aborted the session; the test asserts on it

    threads.append(threading.Thread(target=run_clients, name="clients", daemon=True))
    for thread in threads:
        thread.start()
    transport = hub.endpoint("analyst")
    if wrap_analyst_transport is not None:
        transport = wrap_analyst_transport(transport)
    server_names = [f"prover-{k}" for k in range(num_servers)]
    analyst = build_analyst(
        query,
        transport,
        server_names,
        shard_names,
        group="p64-sim",
        nb_override=nb,
        chunk_size=chunk_size,
        rng=SeededRNG(seed),
        timeout=30.0,
    )
    try:
        result = analyst.run()
    except ProtocolAbort:
        # Free the peer threads instead of leaving them to time out.
        abort_peers(transport, server_names + shard_names + ["clients"], "test")
        raise
    for thread in threads:
        thread.join(timeout=10.0)
    return result


class _ReplaceNthFrame(Transport):
    """Wraps a transport; the ``index``-th frame received from ``target``
    is replaced wholesale — a peer answering with hostile bytes."""

    def __init__(self, inner, target, index, replacement):
        super().__init__(inner.name)
        self._inner = inner
        self._target = target
        self._index = index
        self._replacement = replacement
        self._seen = 0

    def _send(self, peer, frame):
        self._inner.send(peer, frame)

    def _recv(self, peer, timeout):
        frame = self._inner.recv(peer, timeout)
        if peer == self._target:
            self._seen += 1
            if self._seen - 1 == self._index:
                return self._replacement
        return frame


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_memory_count_session_byte_identical(self, shards):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        values = [1, 0, 1, 1, 0, 1, 1]
        outcome = run_distributed_session(
            query,
            values,
            transport="memory",
            num_servers=2,
            shards=shards,
            group="p64-sim",
            nb_override=32,
            seed="shard-equiv",
        )
        assert outcome["accepted"]
        assert outcome["byte_identical"]
        # Triangle check: sharded == unsharded Session at the same chunk.
        assert encode_message(outcome["release"]) == in_process_release_bytes(
            query, values, seed="shard-equiv", chunk=outcome["chunk_size"]
        )

    @pytest.mark.parametrize("transport", ["multiprocess", "socket"])
    def test_process_backed_transports_byte_identical(self, transport):
        outcome = run_distributed_session(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1, 0, 1],
            transport=transport,
            num_servers=2,
            shards=2,
            group="p64-sim",
            nb_override=32,
            seed="shard-proc",
        )
        assert outcome["accepted"] and outcome["byte_identical"]

    def test_histogram_and_bounded_sum_shard_cleanly(self):
        hist = run_distributed_session(
            HistogramQuery(bins=3, epsilon=1.0, delta=DELTA),
            [0, 1, 2, 1, 1, 0],
            transport="memory",
            num_servers=2,
            shards=3,
            group="p64-sim",
            nb_override=32,
            chunk_size=8,
            seed="shard-hist",
        )
        assert hist["accepted"] and hist["byte_identical"]
        summed = run_distributed_session(
            BoundedSumQuery(value_bits=3, epsilon=2.0, delta=DELTA),
            [5, 2, 7, 0],
            transport="memory",
            num_servers=1,
            shards=2,
            group="p64-sim",
            nb_override=16,
            chunk_size=4,
            seed="shard-sum",
        )
        assert summed["accepted"] and summed["byte_identical"]

    def test_single_server_many_shards(self):
        outcome = run_distributed_session(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="memory",
            num_servers=1,
            shards=4,
            group="p64-sim",
            nb_override=16,
            seed="shard-k1",
        )
        assert outcome["accepted"] and outcome["byte_identical"]


class TestCrossShardPinpointing:
    def test_bad_coin_proofs_name_the_prover_with_shard_attribution(self):
        """prover-1 commits non-bits; some shard's sequential replay must
        name the exact coin, merged into the audit with the shard index,
        and honest prover-0 stays HONEST."""

        def factory_for(k):
            return NonBitCoinProver if k == 1 else Prover

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            prover_factory_for=factory_for,
            shards=2,
            nb=32,
            chunk_size=8,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-1"] is ProverStatus.BAD_COIN_PROOF
        assert release.audit.provers["prover-0"] is ProverStatus.HONEST
        assert any(
            "prover-1" in note
            and "shard" in note
            and "coin proof rejected at coin" in note
            for note in release.audit.notes
        ), release.audit.notes

    def test_line13_tamper_caught_at_the_front_end(self):
        """Output tampering is a front-end (Line 13) catch — sharding the
        Σ-verification must not weaken it."""

        def factory_for(k):
            return OutputTamperingProver if k == 0 else Prover

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            prover_factory_for=factory_for,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK
        assert release.audit.provers["prover-1"] is ProverStatus.HONEST

    def test_input_dropping_prover_caught_through_shards(self):
        """Dropping a client's share breaks Line 13 against the *merged*
        client products — guaranteed inclusion survives sharding."""

        def factory_for(k):
            if k != 0:
                return Prover

            def build(name, params, rng, plan=None):
                return InputDroppingProver(
                    name, params, rng, victim="client-1", plan=plan
                )

            return build

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 1, 1, 0],
            prover_factory_for=factory_for,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_tampered_enrollment_names_the_client_honest_shards_unaffected(self):
        """A bit-flip in client-2's validity proof lands in whichever
        shard owns its chunk: exactly client-2 is INVALID_PROOF, every
        other client stays VALID and the session still releases."""

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

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1, 0, 1],
            tamper=tamper,
            shards=3,
            chunk_size=2,  # six clients -> three chunks, one per shard
        )
        release = result.release
        assert release.accepted
        assert release.audit.clients["client-2"] is ClientStatus.INVALID_PROOF
        for name in ("client-0", "client-1", "client-3", "client-4", "client-5"):
            assert release.audit.clients[name] is ClientStatus.VALID
        assert all(
            status is ProverStatus.HONEST
            for status in release.audit.provers.values()
        )

    def test_tampered_share_opening_is_bad_opening_through_shards(self):
        """A corrupted private share opening triggers a prover complaint;
        the owning shard must fold it into a BAD_OPENING verdict."""

        def tamper(index, frame):
            if index != 1:
                return frame
            return frame[:-1] + bytes([frame[-1] ^ 0x01])

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            tamper=tamper,
        )
        release = result.release
        assert release.accepted
        assert release.audit.clients["client-1"] is ClientStatus.BAD_OPENING
        assert release.audit.clients["client-0"] is ClientStatus.VALID

    def test_undecodable_enrollment_dropped_before_dispatch(self):
        """Truncated enrollments die at the front-end with an audit note;
        shards only ever see well-formed frames."""

        def tamper(index, frame):
            return frame[:-40] if index == 2 else frame

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            tamper=tamper,
        )
        release = result.release
        assert release.accepted
        assert "client-2" not in release.audit.clients
        assert any("dropped" in note for note in release.audit.notes)


def _hostile_bundles():
    """name → (tamper for client-2's frame, the one audit note expected)."""
    import dataclasses

    group = CountQuery(epsilon=1.0, delta=DELTA).build_params(
        num_provers=2, group="p64-sim", nb_override=16
    ).group

    def rebuild(edit):
        frames = {}

        def tamper(index, frame):
            frames[index] = frame
            if index != 2:
                return frame
            broadcast, privates = wire.decode_enrollment(group, frame)
            return edit(broadcast, privates, frames)

        return tamper

    def short_commitments(broadcast):
        return dataclasses.replace(
            broadcast, share_commitments=broadcast.share_commitments[:1]
        )

    rejected = "rejected enrollment from 'client-2': "
    return {
        "wrong-message-types": (
            rebuild(lambda b, p, _: wire.encode_enrollment(p[0], [b, p[1]])),
            "dropped an enrollment with wrong message types",
        ),
        "wrong-share-count": (
            rebuild(lambda b, p, _: wire.encode_enrollment(b, p[:1])),
            rejected + "one private share message per prover required",
        ),
        "shape-lie": (
            rebuild(lambda b, p, _: wire.encode_enrollment(short_commitments(b), p)),
            rejected + "share commitments do not match K provers x M coordinates",
        ),
        "mismatched-share-id": (
            rebuild(
                lambda b, p, _: wire.encode_enrollment(
                    b, [dataclasses.replace(p[0], client_id="evil"), p[1]]
                )
            ),
            rejected + "private share client id does not match the broadcast",
        ),
        "duplicate-client-id": (
            rebuild(lambda b, p, frames: frames[0]),
            None,  # worded by the engine's registry; only S-agreement is pinned
        ),
        # Two rules broken at once: the earlier rule (share count) decides.
        "share-count-and-shape-lie": (
            rebuild(
                lambda b, p, _: wire.encode_enrollment(short_commitments(b), p[:1])
            ),
            rejected + "one private share message per prover required",
        ),
        "unclassifiable-frame": (
            rebuild(lambda b, p, _: b"\x00\x00\x00\x07garbage"),
            "dropped an unclassifiable frame",
        ),
    }


class TestHostileEnrollmentsReadTheSameAtEveryS:
    """One validation routine, one note vocabulary: the same malformed
    bundle yields the same audit notes and the same release bytes at
    S = 0 and S = 2 — the survivors-only solo release plus that note."""

    VALUES = [1, 0, 1, 1]

    @pytest.mark.parametrize("case", sorted(_hostile_bundles()))
    def test_notes_and_release_bytes_agree(self, case):
        tamper, expected_note = _hostile_bundles()[case]
        query = CountQuery(epsilon=1.0, delta=DELTA)
        releases = [
            run_sharded_memory(
                query,
                self.VALUES,
                seed="hostile",
                shards=shards,
                nb=16,
                chunk_size=2,
                tamper=tamper,
            ).release
            for shards in (0, 2)
        ]
        unsharded, sharded = releases
        assert unsharded.accepted
        assert unsharded.audit.notes == sharded.audit.notes
        assert len(unsharded.audit.notes) == 1
        if expected_note is not None:
            assert unsharded.audit.notes == [expected_note]
        assert encode_message(unsharded) == encode_message(sharded)

        # Survivors only, in process, plus the note.
        solo = Session(
            query,
            num_provers=2,
            group="p64-sim",
            nb_override=16,
            chunk_size=2,
            rng=SeededRNG("hostile"),
        )
        solo.submit(
            query.make_client(
                f"client-{i}", self.VALUES[i], SeededRNG("hostile").fork(f"client-{i}")
            )
            for i in (0, 1, 3)
        )
        solo._engines[0][1].verifier.audit.note(unsharded.audit.notes[0])
        assert encode_message(solo.release().release) == encode_message(unsharded)


class TestHostilePeerReplies:
    """A peer's garbage reply is that peer's fault: ``ProtocolAbort``
    naming it (exit 3 through ``repro serve``, fleet status ``aborted``)
    — never a raw decoding error that reads as the front-end crashing."""

    def test_garbage_server_setup_reply_names_the_server(self):
        hub = InMemoryHub()
        transport = hub.endpoint("analyst")
        hub.endpoint("prover-0").send("analyst", b"garbage")
        analyst = AnalystNode(
            CountQuery(epsilon=1.0, delta=DELTA),
            transport,
            ["prover-0"],
            group="p64-sim",
            nb_override=16,
            timeout=5.0,
        )
        with pytest.raises(ProtocolAbort) as err:
            analyst.run()
        assert err.value.party == "prover-0"

    # Frames the analyst reads from a shard, in order: the setup ack,
    # the clients-finish reply, then one coin-finish reply per prover.
    @pytest.mark.parametrize(
        "index, reply",
        [
            (0, b"garbage"),
            (1, b"garbage"),
            (1, wire.encode_reply(b"\xff", b"\xff")),
            (1, wire.encode_reply(b"only-one-part")),
            (
                1,  # a verdict code no ClientStatus maps to
                wire.encode_reply(
                    encode_length_prefixed(
                        encode_length_prefixed(
                            int_to_bytes(0), wire.encode_str_list(["client-0"]), b"\x09"
                        )
                    ),
                    encode_length_prefixed(),
                ),
            ),
            (2, b"garbage"),
            (2, wire.encode_reply(b"\x01")),
            (2, wire.encode_reply(b"\x01", b"", int_to_bytes(32), b"not-an-element")),
        ],
        ids=[
            "setup-garbage",
            "clients-finish-garbage",
            "clients-finish-bad-blobs",
            "clients-finish-one-part",
            "clients-finish-unknown-verdict-code",
            "coin-finish-garbage",
            "coin-finish-short",
            "coin-finish-non-element",
        ],
    )
    def test_garbage_shard_reply_names_the_shard(self, index, reply):
        with pytest.raises(ProtocolAbort) as err:
            run_sharded_memory(
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0, 1, 1],
                wrap_analyst_transport=lambda inner: _ReplaceNthFrame(
                    inner, "shard-1", index, reply
                ),
            )
        assert err.value.party == "shard-1"


class TestMergeHelpers:
    """The verifier-level merge API the sharded front-end is built on."""

    def _coin_setup(self, nb=16, seed="merge"):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=nb)
        prover = Prover("prover-0", params, SeededRNG(seed))
        prover.begin_coin_stream(b"merge-ctx")
        return params, prover

    def test_split_coin_stream_partials_merge_to_the_unsharded_products(self):
        """Two verifiers each verifying half the chunks (fast-forwarding
        the other half) produce Line 12 partials whose product equals the
        single-verifier fold."""
        params, prover = self._coin_setup()
        chunks = []
        bits = []
        for c in range(4):
            message = prover.commit_coin_chunk(4)
            chunk_bits = [[(c + j) % 2] for j in range(4)]
            prover.absorb_public_bits(chunk_bits)
            chunks.append((encode_message(message), message))
            bits.append(chunk_bits)

        whole = PublicVerifier(params, SeededRNG("w"))
        whole.begin_coin_stream("prover-0", b"merge-ctx")
        for (frame, message), chunk_bits in zip(chunks, bits):
            assert whole.verify_coin_chunk(message)
            whole.apply_public_bits_chunk("prover-0", chunk_bits)
        assert whole.finish_coin_stream("prover-0")
        expected = whole._adjusted_products["prover-0"]

        partials = []
        for own_parity in (0, 1):
            shard = PublicVerifier(params, SeededRNG(f"s{own_parity}"))
            shard.begin_coin_stream("prover-0", b"merge-ctx")
            for index, ((frame, message), chunk_bits) in enumerate(zip(chunks, bits)):
                if index % 2 == own_parity:
                    fresh = decode_message(params.group, frame)
                    assert shard.verify_coin_chunk(fresh)
                    shard.apply_public_bits_chunk("prover-0", chunk_bits)
                else:
                    assert shard.skip_coin_chunk("prover-0", frame, 4)
            healthy, products = shard.partial_adjusted_products("prover-0")
            assert healthy
            partials.append(products)

        merged = [
            a.element * b.element for a, b in zip(partials[0], partials[1])
        ]
        assert [c.element for c in expected] == merged

        # install_adjusted_products adopts the merged value wholesale.
        front = PublicVerifier(params, SeededRNG("f"))
        from repro.crypto.pedersen import Commitment

        front.install_adjusted_products("prover-0", [Commitment(m) for m in merged])
        assert front._adjusted_products["prover-0"][0].element == merged[0]

    def test_skip_coin_chunk_rejects_garbage_frames(self):
        params, prover = self._coin_setup()
        message = prover.commit_coin_chunk(4)
        shard = PublicVerifier(params, SeededRNG("g"))
        shard.begin_coin_stream("prover-0", b"merge-ctx")
        assert not shard.skip_coin_chunk("prover-0", b"not a frame", 4)
        # The stream is poisoned: later chunks are refused too.
        assert not shard.verify_coin_chunk(message)

    def test_record_client_verdicts_preserves_order_and_filters(self):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=16)
        verifier = PublicVerifier(params, SeededRNG("v"))
        valid = verifier.record_client_verdicts(
            [
                ("client-0", ClientStatus.VALID),
                ("client-1", ClientStatus.INVALID_PROOF),
                ("client-2", ClientStatus.BAD_OPENING),
                ("client-3", ClientStatus.VALID),
            ]
        )
        assert valid == ["client-0", "client-3"]
        assert list(verifier.audit.clients) == [
            "client-0",
            "client-1",
            "client-2",
            "client-3",
        ]

    def test_merge_client_products_shape_checked(self):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=2, group="p64-sim", nb_override=16)
        verifier = PublicVerifier(params, SeededRNG("v"))
        with pytest.raises(Exception):
            verifier.merge_client_products([[None]])  # one row, K = 2
