"""Async serving: wire compat, per-session connections, mux byte-identity.

The acceptance bar of the async front-end: seeded releases from a
:class:`SessionMux` with N ∈ {1, 2, 4} concurrent sessions, served by
session-scoped blocking :func:`~repro.net.roles.run_role` peers, are
byte-identical to the corresponding solo in-process
:class:`repro.api.Session` runs; legacy v1 peers serve session 0
unchanged; and every connection is one peer of one session — a frame
tagged with another session aborts it, naming that peer.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.api.queries import CountQuery
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort
from repro.net.aio import AsyncSocketTransport, SessionMux, SessionSpec
from repro.net.roles import dial, peer_roles, run_role
from repro.net.transport import SocketTransport, pack_frame
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


def _connect(name: str, port: int, session: int) -> SocketTransport:
    return SocketTransport.connect(name, "analyst", port=port, session=session)


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
        """One peer's connections for different sessions interleave their
        frames; each lands in its own session's queue, in order, and a
        reply goes out on the connection of its session."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            s0 = _connect("peer-1", listener.port, 0)
            s2 = _connect("peer-1", listener.port, 2)
            await listener.accept(2, 5.0)
            s2.send("analyst", b"s2-first")
            s0.send("analyst", b"s0")
            s2.send("analyst", b"s2-second")
            assert await listener.recv("peer-1", session=0, timeout=5.0) == b"s0"
            assert (
                await listener.recv("peer-1", session=2, timeout=5.0) == b"s2-first"
            )
            assert (
                await listener.recv("peer-1", session=2, timeout=5.0) == b"s2-second"
            )
            await listener.send("peer-1", b"pong", session=2)
            assert s2.recv("analyst", timeout=5.0) == b"pong"
            s0.close()
            s2.close()
            await listener.aclose()

        asyncio.run(main())

    def test_recv_timeout_aborts_with_peer_named(self):
        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = _connect("peer-1", listener.port, 0)
            await listener.accept(1, 5.0)
            with pytest.raises(ProtocolAbort) as err:
                await listener.recv("peer-1", timeout=0.05)
            assert err.value.party == "peer-1"
            peer.close()
            await listener.aclose()

        asyncio.run(main())

    def test_closed_peer_aborts_pending_recv(self):
        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            peer = _connect("peer-1", listener.port, 1)
            await listener.accept(1, 5.0)
            recv = asyncio.ensure_future(
                listener.recv("peer-1", session=1, timeout=10.0)
            )
            await asyncio.sleep(0.05)
            peer.close()
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

    @pytest.mark.parametrize(
        "scope, foreign",
        [(2, 3), (0, 3), (3, 0), (2, 0xFFFFFFFF)],
        ids=["v2-to-v2", "v1-to-v2", "v2-to-v1", "v2-to-all-ones"],
    )
    def test_frame_from_another_session_aborts_naming_the_peer(self, scope, foreign):
        """A connection is one peer of one session: a frame tagged with
        any other session aborts it, attributed to that peer — whichever
        header version either side uses."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            raw = socket.create_connection(("127.0.0.1", listener.port))
            raw.sendall(pack_frame(b"peer-1", scope))
            await listener.accept(1, 5.0)
            raw.sendall(pack_frame(b"for another session", foreign))
            with pytest.raises(ProtocolAbort) as err:
                await listener.recv("peer-1", session=scope, timeout=5.0)
            assert err.value.party == "peer-1"
            assert (
                f"session-{foreign} frame on a session-{scope} channel"
                in str(err.value)
            )
            assert listener.frames_received == 0
            raw.close()
            await listener.aclose()

        asyncio.run(main())

    def test_duplicate_scope_handshake_dropped_not_fatal(self):
        """Two connections claiming one (name, session): the second is
        dropped, the honest one keeps serving."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            first = _connect("peer-1", listener.port, 1)
            await listener.accept(1, 5.0)
            squatter = _connect("peer-1", listener.port, 1)
            second = _connect("peer-2", listener.port, 1)
            assert await listener.accept(1, 5.0) == ["peer-2"]
            assert listener.dropped_handshakes == [
                "duplicate name 'peer-1' (session 1)"
            ]
            first.send("analyst", b"still-first")
            assert await listener.recv("peer-1", session=1, timeout=5.0) == (
                b"still-first"
            )
            for transport in (first, squatter, second):
                transport.close()
            await listener.aclose()

        asyncio.run(main())

    def test_scope_pinned_expected_drops_session_impostor(self):
        """An impostor handshaking an expected *name* under a session
        scope it does not own is dropped when the front-end pins scopes;
        the honest peer keeps its own session."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            accept = asyncio.ensure_future(
                listener.accept(1, 5.0, expected=[("prover-0", 3)])
            )
            await asyncio.sleep(0.05)  # the expectation filter is armed
            impostor = _connect("prover-0", listener.port, 2)
            honest = _connect("prover-0", listener.port, 3)
            assert await accept == ["prover-0"]
            assert any(
                "unexpected name 'prover-0' (session 2)" in note
                for note in listener.dropped_handshakes
            ), listener.dropped_handshakes
            await listener.send("prover-0", b"hello", session=3)
            assert honest.recv("analyst", timeout=5.0) == b"hello"
            impostor.close()
            honest.close()
            await listener.aclose()

        asyncio.run(main())

    def test_standing_filter_refuses_late_connections(self):
        """Between accepts the standing filter decides: a fleet
        front-end's empty one drops a connection arriving mid-session —
        never registered or buffered."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            listener.default_expected = []
            peer = _connect("peer-1", listener.port, 0)
            await listener.accept(1, 5.0)
            late = SocketTransport.connect("mallory", "analyst", port=listener.port)
            await asyncio.sleep(0.2)  # give the drop handler its turn
            assert "unexpected name 'mallory' (session 0)" in listener.dropped_handshakes
            assert not any(name == "mallory" for name, _ in listener._conns)
            late.close()
            peer.close()
            await listener.aclose()

        asyncio.run(main())

    def test_trickled_handshake_meets_the_standing_filter(self):
        """A connection opened during the accept window whose handshake
        only completes after it is judged by the standing filter — it
        must not slip past the disarmed accept pins and register under
        an expected name's session scope."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            listener.default_expected = []
            accept = asyncio.ensure_future(
                listener.accept(1, 5.0, expected=[("prover-0", 3)])
            )
            await asyncio.sleep(0.05)
            sneak = socket.create_connection(("127.0.0.1", listener.port))
            honest = _connect("prover-0", listener.port, 3)
            assert await accept == ["prover-0"]
            # Handshake lands only now: name expected, scope session 2.
            sneak.sendall(pack_frame(b"prover-0", 2))
            await asyncio.sleep(0.2)
            assert ("prover-0", 2) not in listener._conns
            assert "unexpected name 'prover-0' (session 2)" in listener.dropped_handshakes
            sneak.close()
            honest.close()
            await listener.aclose()

        asyncio.run(main())

    def test_scoped_connections_share_a_name(self):
        """The same peer name appears once per session scope; outbound
        frames go to the connection of their session and nowhere else."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            one = _connect("peer-1", listener.port, 1)
            three = _connect("peer-1", listener.port, 3)
            await listener.accept(2, 5.0)
            await listener.send("peer-1", b"to-1", session=1)
            await listener.send("peer-1", b"to-3", session=3)
            assert one.recv("analyst", timeout=5.0) == b"to-1"
            assert three.recv("analyst", timeout=5.0) == b"to-3"
            with pytest.raises(ParameterError, match="no channel to 'peer-1' for session 2"):
                await listener.send("peer-1", b"nobody", session=2)
            one.close()
            three.close()
            await listener.aclose()

        asyncio.run(main())


def _run_mux(run: str, sessions: int, opener=dial):
    """One mux front-end; every peer of every session is a blocking
    :func:`run_role` thread over its own connection (``opener(name,
    host, port, session=s)``), as a fleet worker runs them.  Returns what
    each ``serve_session`` came to."""

    async def main():
        listener = await AsyncSocketTransport.listen("analyst")
        threads = [
            threading.Thread(
                target=run_role,
                args=(role, name, opener(name, "127.0.0.1", listener.port, session=s)),
                kwargs=dict(
                    seed=_seed(run, s), query=QUERY, values=_values(s), timeout=30.0
                ),
                daemon=True,
            )
            for s in range(sessions)
            for role, name in peer_roles(len(SERVERS), 0)
        ]
        for thread in threads:
            thread.start()
        mux = SessionMux(listener, SERVERS, timeout=30.0, max_concurrency=sessions)
        try:
            await listener.accept(len(threads), 15.0)
            return await asyncio.gather(
                *[
                    mux.serve_session(
                        s,
                        SessionSpec(
                            QUERY,
                            rng=SeededRNG(_seed(run, s)),
                            group="p64-sim",
                            nb_override=32,
                        ),
                    )
                    for s in range(sessions)
                ],
                return_exceptions=True,
            )
        finally:
            mux.close()
            await listener.aclose()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()

    return asyncio.run(main())


class TestSessionMuxByteIdentity:
    @pytest.mark.parametrize("sessions", [1, 2, 4])
    def test_scoped_peers(self, sessions):
        """Every mux session == its solo in-process Session, byte for byte."""
        run = f"aio-{sessions}"
        served = _run_mux(run, sessions)
        for s, one in enumerate(served):
            assert not isinstance(one, BaseException), one
            assert one.release.accepted
            assert encode_message(one.release) == _solo_release_bytes(run, s)

    def test_legacy_sync_peers_serve_session_zero(self):
        """A single-session mux over peers that speak only the v1 wire
        format (a plain ``SocketTransport.connect``, no session binding
        at all) — old nodes against the new front-end, byte-identical
        release."""

        def legacy(name, host, port, session):
            assert session == 0
            return lambda: SocketTransport.connect(name, "analyst", host, port)

        run = "legacy"
        (one,) = _run_mux(run, 1, opener=legacy)
        assert not isinstance(one, BaseException), one
        assert encode_message(one.release) == _solo_release_bytes(run, 0)


class TestMuxForgets:
    """A mux (the fleet worker's) serves an unbounded stream of
    sessions, and an ``EngineResult`` retains every broadcast and coin
    message of its run: once ``serve_session`` is over — returned or
    raised — the mux holds nothing keyed by that session."""

    SID = 5

    def _serve(self, run: str, *, dead_prover: bool):
        """One placement with session-scoped blocking peers, as a fleet
        worker makes it; ``dead_prover`` replaces prover-1 with a
        connection that handshakes and hangs up."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            mux = SessionMux(listener, SERVERS, timeout=30.0)
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
        assert encode_message(served.release) == _solo_release_bytes(
            "dynamic-ok", self.SID
        )
        assert self._per_session_entries(mux, self.SID) == []

    def test_nothing_is_kept_once_a_session_has_aborted(self):
        mux, abort = self._serve("dynamic-abort", dead_prover=True)
        assert isinstance(abort, ProtocolAbort) and abort.party == "prover-1"
        assert self._per_session_entries(mux, self.SID) == []
