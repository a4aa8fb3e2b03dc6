"""Async serving: wire compat, session demux, and mux byte-identity.

The acceptance bar of the async front-end: seeded releases from a
:class:`SessionMux` with N ∈ {1, 2, 4} concurrent sessions are
byte-identical to the corresponding solo in-process
:class:`repro.api.Session` runs, over async-only *and* mixed sync/async
peer topologies; and a peer that dies mid-phase yields an attributed
:class:`ProtocolAbort` for its session only — never a hang, never
collateral damage to the other sessions.
"""

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ProtocolAbort
from repro.net.aio import (
    AsyncClientRunner,
    AsyncServerNode,
    AsyncSocketTransport,
    SessionChannel,
    SessionMux,
    SessionSpec,
)
from repro.net.nodes import ServerNode
from repro.net.roles import dial, peer_roles, run_role
from repro.net.transport import SESSION_ANY, SocketTransport, pack_frame
from repro.utils.rng import SeededRNG

DELTA = 2**-10
QUERY = CountQuery(epsilon=1.0, delta=DELTA)
SERVERS = ["prover-0", "prover-1"]
VALUES = [1, 0, 1, 1, 0]


def _seed(run: str, session: int) -> str:
    return f"{run}/s{session}"


def _values(session: int) -> list[int]:
    shift = session % len(VALUES)
    return VALUES[shift:] + VALUES[:shift]


def _solo_release_bytes(run: str, session: int) -> bytes:
    solo = Session(
        QUERY,
        num_provers=len(SERVERS),
        group="p64-sim",
        nb_override=32,
        rng=SeededRNG(_seed(run, session)),
    )
    solo.submit(_values(session))
    return encode_message(solo.release().release)


class TestFrameFormat:
    def test_session_zero_is_the_legacy_wire_format(self):
        """v1 byte-compat: a session-0 frame is exactly the old header."""
        assert pack_frame(b"abc", 0) == struct.pack(">I", 3) + b"abc"

    def test_v2_header_carries_the_session_id(self):
        packed = pack_frame(b"abc", 7)
        word, session = struct.unpack(">II", packed[:8])
        assert word & 0x80000000
        assert word & 0x7FFFFFFF == 3
        assert session == 7
        assert packed[8:] == b"abc"


class TestAsyncTransport:
    def test_roundtrip_and_session_demux(self):
        """Frames for different sessions interleave over one connection
        and land in the right per-session queues, in order."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            await listener.accept(1, 5.0)
            await peer.send("analyst", b"s2-first", session=2)
            await peer.send("analyst", b"s0", session=0)
            await peer.send("analyst", b"s2-second", session=2)
            assert await listener.recv("peer-1", session=0, timeout=5.0) == b"s0"
            assert (
                await listener.recv("peer-1", session=2, timeout=5.0) == b"s2-first"
            )
            assert (
                await listener.recv("peer-1", session=2, timeout=5.0) == b"s2-second"
            )
            await listener.send("peer-1", b"pong", session=2)
            assert await peer.recv("analyst", session=2, timeout=5.0) == b"pong"
            await peer.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_recv_timeout_aborts_with_peer_named(self):
        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            await listener.accept(1, 5.0)
            with pytest.raises(ProtocolAbort) as err:
                await listener.recv("peer-1", timeout=0.05)
            assert err.value.party == "peer-1"
            await peer.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_closed_peer_aborts_pending_recv(self):
        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            await listener.accept(1, 5.0)
            recv = asyncio.ensure_future(listener.recv("peer-1", timeout=10.0))
            await asyncio.sleep(0.05)
            await peer.aclose()
            with pytest.raises(ProtocolAbort) as err:
                await recv
            assert err.value.party == "peer-1"
            await listener.aclose()

        asyncio.run(main())

    def test_oversized_announcement_aborts_before_buffering(self):
        async def main():
            listener = await AsyncSocketTransport.listen(
                "analyst", max_frame_bytes=1024
            )
            raw = socket.create_connection(("127.0.0.1", listener.port))
            raw.sendall(struct.pack(">I", 6) + b"peer-1")
            await listener.accept(1, 5.0)
            raw.sendall(struct.pack(">I", 2048) + b"\x00" * 2048)
            with pytest.raises(ProtocolAbort) as err:
                await listener.recv("peer-1", timeout=5.0)
            assert "oversized" in str(err.value)
            raw.close()
            await listener.aclose()

        asyncio.run(main())

    def test_duplicate_scope_handshake_dropped_not_fatal(self):
        """Two ANY-scope connections claiming one name: the second is
        dropped, the honest one keeps serving."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            first = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            await listener.accept(1, 5.0)
            squatter = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            second = await AsyncSocketTransport.connect(
                "peer-2", "analyst", port=listener.port
            )
            assert await listener.accept(1, 5.0) == ["peer-2"]
            assert listener.dropped_handshakes == ["duplicate name 'peer-1'"]
            await first.send("analyst", b"still-first")
            assert await listener.recv("peer-1", timeout=5.0) == b"still-first"
            for transport in (first, squatter, second):
                await transport.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_scope_pinned_expected_drops_session_impostor(self):
        """An impostor handshaking an expected *name* under a session
        scope (to hijack that session's exact-scope routing) is dropped
        when the front-end pins scopes; the honest ANY-scope host keeps
        every session."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            accept = asyncio.ensure_future(
                listener.accept(1, 5.0, expected=[("prover-0", SESSION_ANY)])
            )
            await asyncio.sleep(0.05)  # the expectation filter is armed
            impostor = SocketTransport.connect(
                "prover-0", "analyst", port=listener.port, session=2
            )
            honest = await AsyncSocketTransport.connect(
                "prover-0", "analyst", port=listener.port
            )
            assert await accept == ["prover-0"]
            assert any(
                "unexpected name 'prover-0' (session 2)" in note
                for note in listener.dropped_handshakes
            ), listener.dropped_handshakes
            await listener.send("prover-0", b"hello", session=2)
            assert await honest.recv("analyst", session=2, timeout=5.0) == b"hello"
            impostor.close()
            await honest.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_lockdown_refuses_late_connections(self):
        """Once the topology is complete, a connection arriving
        mid-session is dropped unread — never registered or buffered."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            await listener.accept(1, 5.0)
            listener.lockdown()
            late = SocketTransport.connect("mallory", "analyst", port=listener.port)
            await asyncio.sleep(0.2)  # give the drop handler its turn
            assert "<connection after lockdown>" in listener.dropped_handshakes
            assert not any(name == "mallory" for name, _ in listener._conns)
            late.close()
            await peer.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_trickled_handshake_cannot_outlive_lockdown(self):
        """A connection opened during the accept window whose handshake
        only completes after lockdown is dropped — it must not slip past
        the disarmed expectation filter and register under an expected
        name's session scope."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            accept = asyncio.ensure_future(
                listener.accept(1, 5.0, expected=[("prover-0", SESSION_ANY)])
            )
            await asyncio.sleep(0.05)
            sneak = socket.create_connection(("127.0.0.1", listener.port))
            honest = await AsyncSocketTransport.connect(
                "prover-0", "analyst", port=listener.port
            )
            assert await accept == ["prover-0"]
            listener.lockdown()
            # Handshake lands only now: name expected, scope session 2.
            sneak.sendall(pack_frame(b"prover-0", 2))
            await asyncio.sleep(0.2)
            assert ("prover-0", 2) not in listener._conns
            assert "<connection after lockdown>" in listener.dropped_handshakes
            sneak.close()
            await honest.aclose()
            await listener.aclose()

        asyncio.run(main())

    def test_scoped_connections_share_a_name(self):
        """The same peer name can appear once per session scope; outbound
        frames route to the exact scope before the ANY fallback."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            any_scope = await AsyncSocketTransport.connect(
                "peer-1", "analyst", port=listener.port
            )
            scoped = SocketTransport.connect(
                "peer-1", "analyst", port=listener.port, session=3
            )
            await listener.accept(2, 5.0)
            await listener.send("peer-1", b"to-any", session=1)
            await listener.send("peer-1", b"to-scoped", session=3)
            assert await any_scope.recv("analyst", session=1, timeout=5.0) == b"to-any"
            assert scoped.recv("analyst", timeout=5.0) == b"to-scoped"
            scoped.close()
            await any_scope.aclose()
            await listener.aclose()

        asyncio.run(main())


def _run_mux_topology(run: str, sessions: int, sync_sessions: set[int]):
    """One mux front-end, K server peers, one client peer; the sessions in
    ``sync_sessions`` are served by blocking scoped SocketTransport peers
    on threads, the rest by async multi-session hosts."""

    async def main():
        listener = await AsyncSocketTransport.listen("analyst")
        port = listener.port
        threads = []
        for name in SERVERS:
            for s in sorted(sync_sessions):
                transport = SocketTransport.connect(
                    name, "analyst", port=port, session=s
                )
                node = ServerNode(
                    transport, SeededRNG(_seed(run, s)).fork(name), timeout=30.0
                )
                threads.append(threading.Thread(target=node.run, daemon=True))
        for thread in threads:
            thread.start()

        async_sessions = [s for s in range(sessions) if s not in sync_sessions]
        async_transports = []
        tasks = []
        for name in SERVERS:
            transport = await AsyncSocketTransport.connect(
                name, "analyst", port=port
            )
            async_transports.append(transport)
            if async_sessions:
                node = AsyncServerNode(
                    transport,
                    {
                        s: SeededRNG(_seed(run, s)).fork(name)
                        for s in async_sessions
                    },
                    timeout=30.0,
                )
                tasks.append(node.run())
        clients_transport = await AsyncSocketTransport.connect(
            "clients", "analyst", port=port
        )
        async_transports.append(clients_transport)
        runner = AsyncClientRunner(
            clients_transport,
            {
                s: (QUERY, _values(s), SeededRNG(_seed(run, s)))
                for s in range(sessions)
            },
            timeout=30.0,
        )
        tasks.append(runner.run())

        expect = len(SERVERS) * (1 + len(sync_sessions)) + 1
        await listener.accept(expect, 15.0)

        mux = SessionMux(
            [
                SessionSpec(
                    QUERY,
                    rng=SeededRNG(_seed(run, s)),
                    group="p64-sim",
                    nb_override=32,
                )
                for s in range(sessions)
            ],
            listener,
            SERVERS,
            timeout=30.0,
        )
        await asyncio.gather(mux.run(), *tasks)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        for transport in async_transports:
            await transport.aclose()
        await listener.aclose()
        return mux

    return asyncio.run(main())


class TestSessionMuxByteIdentity:
    @pytest.mark.parametrize("sessions", [1, 2, 4])
    def test_async_only_topology(self, sessions):
        """Every mux session == its solo in-process Session, byte for byte."""
        run = f"aio-{sessions}"
        mux = _run_mux_topology(run, sessions, sync_sessions=set())
        for s in range(sessions):
            assert mux.errors[s] is None, mux.errors[s]
            release = mux.results[s].release
            assert release.accepted
            assert encode_message(release) == _solo_release_bytes(run, s)

    @pytest.mark.parametrize("sessions", [2, 4])
    def test_mixed_sync_async_topology(self, sessions):
        """Session 1's provers are blocking SocketTransport peers bound to
        that session; the rest ride async hosts.  Wire compatibility means
        the mux cannot tell the difference — byte-identity must hold for
        every session."""
        run = f"mixed-{sessions}"
        mux = _run_mux_topology(run, sessions, sync_sessions={1})
        for s in range(sessions):
            assert mux.errors[s] is None, mux.errors[s]
            assert encode_message(mux.results[s].release) == _solo_release_bytes(
                run, s
            )

    def test_legacy_sync_peers_serve_session_zero(self):
        """A single-session mux over peers that speak only the v1 wire
        format (no session binding at all) — old nodes against the new
        front-end, byte-identical release."""
        run = "legacy"
        mux = _run_mux_topology(run, 1, sync_sessions={0})
        assert mux.errors[0] is None, mux.errors[0]
        assert encode_message(mux.results[0].release) == _solo_release_bytes(run, 0)


class TestDynamicMuxForgets:
    """A dynamic mux (``specs=None``, the fleet worker's) serves an
    unbounded stream of sessions, and an ``EngineResult`` retains every
    broadcast and coin message of its run: once ``serve_session`` is
    over — returned or raised — the mux holds nothing keyed by that
    session.  The maps stay the return value of the static ``run()``
    (:class:`TestSessionMuxByteIdentity` reads them)."""

    SID = 5

    def _serve(self, run: str, *, dead_prover: bool):
        """One dynamic placement with session-scoped blocking peers, as a
        fleet worker makes it; ``dead_prover`` replaces prover-1 with a
        connection that handshakes and hangs up."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            mux = SessionMux(None, listener, SERVERS, timeout=30.0)
            threads = []
            for role, name in peer_roles(len(SERVERS), 0):
                opener = dial(name, "127.0.0.1", listener.port, session=self.SID)
                if dead_prover and name == "prover-1":
                    opener().close()
                    continue
                threads.append(
                    threading.Thread(
                        target=run_role,
                        args=(role, name, opener),
                        kwargs=dict(
                            seed=_seed(run, self.SID),
                            query=QUERY,
                            values=_values(self.SID),
                            timeout=30.0,
                        ),
                        daemon=True,
                    )
                )
            for thread in threads:
                thread.start()
            spec = SessionSpec(
                QUERY,
                rng=SeededRNG(_seed(run, self.SID)),
                group="p64-sim",
                nb_override=32,
            )
            try:
                await listener.accept(len(SERVERS) + 1, 15.0)
                return mux, await mux.serve_session(self.SID, spec)
            except ProtocolAbort as exc:
                return mux, exc
            finally:
                mux.close()
                await listener.aclose()  # unblocks the surviving peers
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()

        return asyncio.run(main())

    @staticmethod
    def _per_session_entries(mux, session):
        return [
            name
            for name, value in vars(mux).items()
            if isinstance(value, dict) and session in value
        ]

    def test_nothing_is_kept_once_a_session_is_served(self):
        mux, served = self._serve("dynamic-ok", dead_prover=False)
        assert encode_message(served.result.release) == _solo_release_bytes(
            "dynamic-ok", self.SID
        )
        assert served.chunk_size is None and served.seconds > 0
        assert self._per_session_entries(mux, self.SID) == []

    def test_nothing_is_kept_once_a_session_has_aborted(self):
        mux, abort = self._serve("dynamic-abort", dead_prover=True)
        assert isinstance(abort, ProtocolAbort) and abort.party == "prover-1"
        assert self._per_session_entries(mux, self.SID) == []
