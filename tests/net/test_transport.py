"""Transport semantics: ordering, timeouts, accounting, process crossing."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.errors import ParameterError, ProtocolAbort
from repro.net.fleet import FleetConfig, FleetDispatcher
from repro.net.gateway import FleetGateway
from repro.net.transport import (
    InMemoryHub,
    MultiprocessTransport,
    SocketTransport,
    _read_session_frame,
    multiprocess_star,
    pack_frame,
)


class TestInMemory:
    def test_fifo_and_accounting(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        b = hub.endpoint("b")
        a.send("b", b"one")
        a.send("b", b"four")
        assert b.recv("a") == b"one"
        assert b.recv("a") == b"four"
        assert a.bytes_sent == 7 and a.frames_sent == 2
        assert b.bytes_received == 7 and b.frames_received == 2
        assert a.bytes_received == 0 and b.bytes_sent == 0

    def test_channels_independent(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        b = hub.endpoint("b")
        c = hub.endpoint("c")
        a.send("b", b"ab")
        c.send("b", b"cb")
        b.send("a", b"ba")
        assert b.recv("c", timeout=1.0) == b"cb"
        assert b.recv("a", timeout=1.0) == b"ab"
        assert a.recv("b", timeout=1.0) == b"ba"
        with pytest.raises(ProtocolAbort):
            c.recv("a", timeout=0.05)

    def test_send_to_unknown_peer_rejected(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        with pytest.raises(ParameterError, match="nobody"):
            a.send("nobody", b"lost")

    def test_timeout_aborts(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        hub.endpoint("b")
        with pytest.raises(ProtocolAbort) as err:
            a.recv("b", timeout=0.05)
        assert err.value.party == "b"

    def test_cross_thread_blocking(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        b = hub.endpoint("b")
        received = []

        def consumer():
            received.append(b.recv("a", timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        a.send("b", b"wake")
        thread.join(timeout=5.0)
        assert received == [b"wake"]

    def test_bytes_only(self):
        hub = InMemoryHub()
        a = hub.endpoint("a")
        hub.endpoint("b")
        with pytest.raises(ParameterError):
            a.send("b", "not-bytes")

    def test_timeout_holds_under_unrelated_traffic(self):
        """Every send to any peer wakes the hub condition; the recv
        deadline must be monotonic, not re-armed per wake, or chatter
        between other parties extends the block indefinitely."""
        hub = InMemoryHub()
        a = hub.endpoint("a")
        hub.endpoint("b")
        c = hub.endpoint("c")
        stop = threading.Event()

        def chatter():
            while not stop.is_set():
                c.send("a", b"noise")
                time.sleep(0.02)

        thread = threading.Thread(target=chatter, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(ProtocolAbort):
                a.recv("b", timeout=0.2)
            assert time.monotonic() - start < 1.5
        finally:
            stop.set()
            thread.join(timeout=5.0)


class TestMultiprocess:
    def test_star_same_process_roundtrip(self):
        center, peers = multiprocess_star("hub", ["x", "y"])
        peers["x"].send("hub", b"from-x")
        assert center.recv("x") == b"from-x"
        center.send("y", b"to-y")
        assert peers["y"].recv("hub") == b"to-y"
        assert center.bytes_received == 6
        for transport in [center, *peers.values()]:
            transport.close()

    def test_timeout(self):
        center, peers = multiprocess_star("hub", ["x"])
        with pytest.raises(ProtocolAbort):
            center.recv("x", timeout=0.05)
        center.close()
        peers["x"].close()

    def test_unknown_peer(self):
        center, peers = multiprocess_star("hub", ["x"])
        with pytest.raises(ParameterError):
            center.send("nobody", b"hi")
        center.close()
        peers["x"].close()

    def test_cross_process(self):
        from multiprocessing import get_context

        center, peers = multiprocess_star("hub", ["child"])

        def child_main(transport):
            frame = transport.recv("hub", timeout=10.0)
            transport.send("hub", frame[::-1])

        process = get_context("fork").Process(
            target=child_main, args=(peers["child"],), daemon=True
        )
        process.start()
        center.send("child", b"abc")
        assert center.recv("child", timeout=10.0) == b"cba"
        process.join(timeout=10.0)
        center.close()


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


class TestSocket:
    def test_handshake_and_frames(self):
        listener = SocketTransport.listen("analyst")
        client = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        client.send("analyst", b"\x00" * 70000)  # bigger than one TCP segment
        assert listener.recv("peer-1", timeout=5.0) == b"\x00" * 70000
        listener.send("peer-1", b"pong")
        assert client.recv("analyst", timeout=5.0) == b"pong"
        client.close()
        listener.close()

    @pytest.mark.parametrize("session", [0, 1, 3], ids=lambda s: f"session-{s}")
    def test_connect_handshake_bytes(self, session):
        """A scoped dialer's handshake is its name framed for its session:
        the v1 header for session 0, the v2 header with the id otherwise —
        the literal bytes every listener has always read."""
        raw = socket.create_server(("127.0.0.1", 0))
        peer = SocketTransport.connect(
            "peer-1", "analyst", port=raw.getsockname()[1], session=session
        )
        conn, _ = raw.accept()
        try:
            if session == 0:
                expected = struct.pack(">I", 6) + b"peer-1"
            else:
                expected = struct.pack(">II", 0x8000_0000 | 6, session) + b"peer-1"
            conn.settimeout(5.0)
            received = b""
            while len(received) < len(expected):
                chunk = conn.recv(len(expected) - len(received))
                assert chunk, "dialer closed before its handshake"
                received += chunk
            assert received == expected
        finally:
            conn.close()
            peer.close()
            raw.close()

    @pytest.mark.parametrize(
        "scope, foreign",
        [(0, 3), (3, 0), (3, 5)],
        ids=["v1-to-v2", "v2-to-v1", "v2-to-v2"],
    )
    def test_scoped_dialer_aborts_on_a_frame_from_another_session(
        self, scope, foreign
    ):
        """The blocking ``run_role`` side of a scoped connection: a frame
        tagged with any other session aborts the read, naming the sender."""
        raw = socket.create_server(("127.0.0.1", 0))
        peer = SocketTransport.connect(
            "peer-1", "analyst", port=raw.getsockname()[1], session=scope
        )
        conn, _ = raw.accept()
        try:
            conn.sendall(pack_frame(b"for another session", foreign))
            with pytest.raises(ProtocolAbort) as err:
                peer.recv("analyst", timeout=5.0)
            assert err.value.party == "analyst"
            assert (
                f"session-{foreign} frame on a session-{scope} channel"
                in str(err.value)
            )
        finally:
            conn.close()
            peer.close()
            raw.close()

    def test_recv_timeout(self):
        listener = SocketTransport.listen("analyst")
        client = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        listener.accept(1, timeout=5.0)
        with pytest.raises(ProtocolAbort) as err:
            listener.recv("peer-1", timeout=0.05)
        assert err.value.party == "peer-1"
        client.close()
        listener.close()

    def test_closed_peer_aborts(self):
        listener = SocketTransport.listen("analyst")
        client = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        listener.accept(1, timeout=5.0)
        client.close()
        with pytest.raises(ProtocolAbort):
            listener.recv("peer-1", timeout=1.0)
        listener.close()

    def test_oversized_frame_announcement_aborts(self):
        """The length prefix is untrusted: a header above the cap must
        abort before buffering, not allocate up to 4 GiB."""
        listener = SocketTransport.listen("analyst", max_frame_bytes=1024)
        client = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        listener.accept(1, timeout=5.0)
        client.send("analyst", b"\x00" * 2048)
        with pytest.raises(ProtocolAbort) as err:
            listener.recv("peer-1", timeout=5.0)
        assert "oversized" in str(err.value)
        client.close()
        listener.close()

    def test_bad_utf8_handshake_dropped_not_fatal(self):
        """A non-UTF-8 handshake name kills that connection only; the
        listener keeps accepting and the honest peer still enrolls."""
        listener = SocketTransport.listen("analyst")
        raw = socket.create_connection(("127.0.0.1", listener.port))
        raw.sendall(struct.pack(">I", 2) + b"\xff\xfe")
        honest = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        raw.close()
        honest.close()
        listener.close()

    def test_duplicate_name_handshake_dropped_not_fatal(self):
        """A handshake claiming an already-registered name is dropped (a
        squatter cannot abort the listener); later distinct peers still
        get through."""
        listener = SocketTransport.listen("analyst")
        first = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        squatter = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        second = SocketTransport.connect("peer-2", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0) == ["peer-2"]
        assert listener.dropped_handshakes == ["duplicate name 'peer-1'"]
        listener.send("peer-1", b"still-first")
        assert first.recv("analyst", timeout=5.0) == b"still-first"
        for transport in (first, squatter, second, listener):
            transport.close()

    def test_accept_deadline_is_overall_not_per_connection(self):
        """A peer that connects but never handshakes must not re-arm the
        accept timeout: the whole call fails within the one deadline,
        naming what was dropped."""
        listener = SocketTransport.listen("analyst")
        silent = socket.create_connection(("127.0.0.1", listener.port))
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as err:
            listener.accept(1, timeout=0.5)
        assert time.monotonic() - start < 3.0
        assert "timed out accepting peers" in str(err.value)
        silent.close()
        listener.close()

    def test_byte_trickle_bounded_by_frame_deadline(self):
        """The recv timeout covers the whole frame under one monotonic
        deadline — a peer trickling one byte per interval must not
        re-arm the window on every recv call."""
        listener = SocketTransport.listen("analyst")
        raw = socket.create_connection(("127.0.0.1", listener.port))
        raw.sendall(struct.pack(">I", 6) + b"peer-1")
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        raw.sendall(struct.pack(">I", 12) + b"ab")  # 10 bytes outstanding
        stop = threading.Event()

        def trickle():
            for _ in range(10):
                if stop.wait(0.3):
                    return
                try:
                    raw.sendall(b"x")
                except OSError:
                    return

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(ProtocolAbort):
                listener.recv("peer-1", timeout=0.5)
            assert time.monotonic() - start < 2.0
        finally:
            stop.set()
            thread.join(timeout=5.0)
            raw.close()
            listener.close()

    def test_unexpected_name_dropped_with_expected_filter(self):
        """With an expected peer set, a handshake outside it is dropped
        and recorded; the expected peer still gets through."""
        listener = SocketTransport.listen("analyst")
        mallory = SocketTransport.connect("mallory", "analyst", port=listener.port)
        honest = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0, expected=["peer-1"]) == ["peer-1"]
        assert listener.dropped_handshakes == ["unexpected name 'mallory'"]
        for transport in (mallory, honest, listener):
            transport.close()

    def test_oversized_handshake_dropped(self):
        """The pre-auth handshake is capped far below max_frame_bytes —
        a 256 MiB 'name' announcement is dropped, not buffered."""
        listener = SocketTransport.listen("analyst")
        greedy = socket.create_connection(("127.0.0.1", listener.port))
        greedy.sendall(struct.pack(">I", 1 << 28) + b"x" * 64)
        honest = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        assert listener.dropped_handshakes == ["<unreadable handshake>"]
        greedy.close()
        honest.close()
        listener.close()

    def test_a_forked_peer_dials_without_a_name_lookup(self):
        """``roles.dial`` resolves in the process that calls it, so a child
        forked afterwards connects with no ``getaddrinfo`` of its own —
        whose first call in a process imports ``encodings.idna`` (≈ 5 ms
        per peer per session, inside the front-end's ``accept`` wait)."""
        from multiprocessing import get_context

        from repro.net.roles import dial

        listener = SocketTransport.listen("analyst")
        opener = dial("peer-1", "127.0.0.1", listener.port)
        reader, writer = get_context("fork").Pipe(duplex=False)

        def child_main():
            lookups = []
            real = socket.getaddrinfo

            def counting(*args, **kwargs):
                lookups.append(args)
                return real(*args, **kwargs)

            socket.getaddrinfo = counting
            opener().close()
            writer.send(len(lookups))

        process = get_context("fork").Process(target=child_main, daemon=True)
        process.start()
        try:
            assert reader.poll(10.0)
            assert reader.recv() == 0
            assert listener.accept(1, timeout=5.0) == ["peer-1"]
        finally:
            process.join(timeout=10.0)
            listener.close()


_SESSIONS = pytest.mark.parametrize(
    "session", [3, 0xFFFF_FFFF], ids=["session-3", "session-max"]
)


def _raw_peer(port: int, name: bytes, session: int) -> socket.socket:
    """A bare socket that has sent ``name``'s handshake for ``session``."""
    raw = socket.create_connection(("127.0.0.1", port))
    raw.sendall(pack_frame(name, session))
    return raw


class TestSessionScopedSocket:
    """A listener bound to a session — the one each fleet session gets —
    and its session-scoped dialers: every frame carries the v2 header,
    and a connection is one peer of that one session."""

    @_SESSIONS
    def test_roundtrip(self, session):
        listener = SocketTransport.listen("analyst", session=session)
        client = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        try:
            assert listener.accept(1, timeout=5.0) == ["peer-1"]
            client.send("analyst", b"\x00" * 70000)
            assert listener.recv("peer-1", timeout=5.0) == b"\x00" * 70000
            listener.send("peer-1", b"pong")
            assert client.recv("analyst", timeout=5.0) == b"pong"
        finally:
            client.close()
            listener.close()

    @_SESSIONS
    def test_recv_timeout_aborts_with_peer_named(self, session):
        listener = SocketTransport.listen("analyst", session=session)
        client = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        try:
            listener.accept(1, timeout=5.0)
            with pytest.raises(ProtocolAbort) as err:
                listener.recv("peer-1", timeout=0.05)
            assert err.value.party == "peer-1"
        finally:
            client.close()
            listener.close()

    @_SESSIONS
    def test_closed_peer_aborts_pending_recv(self, session):
        """A peer hanging up while the analyst is already blocked on it
        ends that recv at once, not at its timeout."""
        listener = SocketTransport.listen("analyst", session=session)
        client = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        listener.accept(1, timeout=5.0)
        raised = []

        def pending():
            try:
                listener.recv("peer-1", timeout=10.0)
            except ProtocolAbort as exc:
                raised.append(exc)

        thread = threading.Thread(target=pending, daemon=True)
        start = time.monotonic()
        thread.start()
        try:
            time.sleep(0.05)
            client.close()
            thread.join(timeout=10.0)
            assert time.monotonic() - start < 5.0
            (abort,) = raised
            assert abort.party == "peer-1"
        finally:
            listener.close()

    @_SESSIONS
    def test_oversized_announcement_aborts_before_buffering(self, session):
        """Only the v2 header is sent: the abort comes from the announced
        size alone, never from waiting on the payload."""
        listener = SocketTransport.listen(
            "analyst", max_frame_bytes=1024, session=session
        )
        raw = _raw_peer(listener.port, b"peer-1", session)
        try:
            listener.accept(1, timeout=5.0)
            raw.sendall(pack_frame(b"\x00" * 2048, session)[:8])
            with pytest.raises(ProtocolAbort) as err:
                listener.recv("peer-1", timeout=5.0)
            assert "oversized" in str(err.value)
            assert err.value.party == "peer-1"
        finally:
            raw.close()
            listener.close()

    @pytest.mark.parametrize(
        "scope, foreign",
        [(2, 3), (0, 3), (3, 0), (2, 0xFFFF_FFFF)],
        ids=["v2-to-v2", "v1-to-v2", "v2-to-v1", "v2-to-all-ones"],
    )
    def test_frame_from_another_session_aborts_naming_the_peer(self, scope, foreign):
        """The listener side of a scoped connection: after an honest
        handshake, a frame tagged with any other session aborts the read,
        attributed to that peer, whichever header version either side
        uses — and nothing of it is counted as received."""
        listener = SocketTransport.listen("analyst", session=scope)
        raw = _raw_peer(listener.port, b"peer-1", scope)
        try:
            assert listener.accept(1, timeout=5.0) == ["peer-1"]
            raw.sendall(pack_frame(b"for another session", foreign))
            with pytest.raises(ProtocolAbort) as err:
                listener.recv("peer-1", timeout=5.0)
            assert err.value.party == "peer-1"
            assert (
                f"session-{foreign} frame on a session-{scope} channel"
                in str(err.value)
            )
            assert listener.frames_received == 0
        finally:
            raw.close()
            listener.close()

    @_SESSIONS
    def test_duplicate_name_dropped_not_fatal(self, session):
        """Two connections claiming one name in one session: the second
        is dropped, the honest one keeps serving."""
        listener = SocketTransport.listen("analyst", session=session)
        first = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        assert listener.accept(1, timeout=5.0) == ["peer-1"]
        squatter = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        second = SocketTransport.connect(
            "peer-2", "analyst", port=listener.port, session=session
        )
        try:
            assert listener.accept(1, timeout=5.0) == ["peer-2"]
            assert listener.dropped_handshakes == ["duplicate name 'peer-1'"]
            first.send("analyst", b"still-first")
            assert listener.recv("peer-1", timeout=5.0) == b"still-first"
        finally:
            for transport in (first, squatter, second, listener):
                transport.close()

    @pytest.mark.parametrize(
        "scope, foreign",
        [(3, 0), (3, 2), (0, 3)],
        ids=["v1-to-v2", "v2-to-v2", "v2-to-v1"],
    )
    def test_handshake_for_another_session_is_dropped(self, scope, foreign):
        """An impostor dialling an expected name under a session the
        listener does not serve is dropped with one note; the honest peer
        then gets the name and the session's frames."""
        listener = SocketTransport.listen("analyst", session=scope)
        impostor = SocketTransport.connect(
            "prover-0", "analyst", port=listener.port, session=foreign
        )
        honest = SocketTransport.connect(
            "prover-0", "analyst", port=listener.port, session=scope
        )
        try:
            names = listener.accept(1, timeout=5.0, expected=[("prover-0", scope)])
            assert names == ["prover-0"]
            assert listener.dropped_handshakes == [
                f"session-{foreign} handshake from 'prover-0' "
                f"on a session-{scope} listener"
            ]
            listener.send("prover-0", b"hello")
            assert honest.recv("analyst", timeout=5.0) == b"hello"
        finally:
            for transport in (impostor, honest, listener):
                transport.close()

    def test_sessions_on_their_own_listeners_share_peer_names(self):
        """Two concurrent sessions on one host, as on a front-end: the
        same peer names on two listeners, and each frame reaches only
        the peer of its own session."""
        listeners = {
            s: SocketTransport.listen("analyst", session=s) for s in (1, 3)
        }
        peers = {
            s: SocketTransport.connect(
                "peer-1", "analyst", port=listeners[s].port, session=s
            )
            for s in (1, 3)
        }
        try:
            for listener in listeners.values():
                assert listener.accept(1, timeout=5.0) == ["peer-1"]
            for s in (1, 3):
                listeners[s].send("peer-1", f"to-{s}".encode())
                peers[s].send("analyst", f"from-{s}".encode())
            for s in (1, 3):
                assert peers[s].recv("analyst", timeout=5.0) == f"to-{s}".encode()
                assert listeners[s].recv("peer-1", timeout=5.0) == (
                    f"from-{s}".encode()
                )
        finally:
            for transport in (*peers.values(), *listeners.values()):
                transport.close()

    def test_stop_listening_keeps_the_accepted_peers(self):
        """Closing the listener once a session's peers are in refuses
        every later dial and leaves the accepted channels working."""
        listener = SocketTransport.listen("analyst", session=3)
        client = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=3
        )
        try:
            assert listener.accept(1, timeout=5.0) == ["peer-1"]
            listener.stop_listening()
            with pytest.raises(ConnectionRefusedError):
                SocketTransport.connect(
                    "peer-2", "analyst", port=listener.port, session=3, timeout=5.0
                )
            client.send("analyst", b"after")
            assert listener.recv("peer-1", timeout=5.0) == b"after"
            listener.send("peer-1", b"reply")
            assert client.recv("analyst", timeout=5.0) == b"reply"
        finally:
            client.close()
            listener.close()


class TestSessionIdRange:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: pack_frame(b"x", -1),
            lambda: pack_frame(b"x", 0x1_0000_0000),
            lambda: SocketTransport.listen("analyst", session=-1),
            lambda: SocketTransport.connect(
                "peer-1", "analyst", port=1, session=0x1_0000_0000
            ),
        ],
        ids=["frame-negative", "frame-above-max", "listener-negative", "dialer-above-max"],
    )
    def test_session_id_outside_the_header_field_is_refused(self, make):
        """The v2 header carries a 4-byte id: anything outside [0, 2**32)
        is refused before a byte is packed or a socket opened."""
        with pytest.raises(ParameterError, match="session id out of range"):
            make()


class TestReadSessionFrame:
    """``_read_session_frame``, the one reader of every frame and
    handshake on a TCP channel, fed byte streams over a socket pair."""

    @staticmethod
    def _read(stream: bytes, *, max_bytes: int = 1024, eof: bool = False):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(stream)
            if eof:
                theirs.shutdown(socket.SHUT_WR)
            return _read_session_frame(ours, 5.0, party="peer-1", max_bytes=max_bytes)
        finally:
            ours.close()
            theirs.close()

    def test_v1_header_reads_as_session_zero(self):
        assert self._read(struct.pack(">I", 3) + b"abc") == (0, b"abc")

    @pytest.mark.parametrize("session", [1, 0xFFFF_FFFF], ids=["session-1", "session-max"])
    def test_v2_header_reads_its_session(self, session):
        assert self._read(pack_frame(b"abc", session)) == (session, b"abc")

    def test_v2_header_naming_session_zero_aborts(self):
        """Session 0 is always written as v1, so a v2 header carrying 0
        comes from no honest writer."""
        with pytest.raises(ProtocolAbort, match="invalid v2 session id") as err:
            self._read(struct.pack(">II", 0x8000_0000 | 3, 0) + b"abc")
        assert err.value.party == "peer-1"

    @pytest.mark.parametrize("session", [0, 3], ids=["v1", "v2"])
    def test_oversized_announcement_aborts_on_the_header_alone(self, session):
        header = pack_frame(b"\x00" * 2048, session)[: 4 if session == 0 else 8]
        with pytest.raises(ProtocolAbort, match=r"oversized frame \(2048 bytes\)"):
            self._read(header, max_bytes=1024)

    @pytest.mark.parametrize(
        "stream",
        [struct.pack(">I", 3)[:2], struct.pack(">II", 0x8000_0000 | 3, 7)[:6]],
        ids=["inside-the-length", "inside-the-session-id"],
    )
    def test_eof_inside_the_header_aborts_naming_the_party(self, stream):
        with pytest.raises(ProtocolAbort, match="closed the connection") as err:
            self._read(stream, eof=True)
        assert err.value.party == "peer-1"

    def test_frame_arriving_a_byte_at_a_time_reads_whole(self):
        """A header and payload split at every byte boundary still read
        as one frame under the one deadline."""
        ours, theirs = socket.socketpair()

        def dribble():
            for byte in pack_frame(b"abc", 7):
                time.sleep(0.01)
                theirs.sendall(bytes([byte]))

        thread = threading.Thread(target=dribble, daemon=True)
        thread.start()
        try:
            assert _read_session_frame(ours, 5.0, party="peer-1") == (7, b"abc")
        finally:
            thread.join(timeout=5.0)
            ours.close()
            theirs.close()


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestNoDelay:
    """No frame waits on a delayed ACK: every TCP stream socket the
    package opens has ``TCP_NODELAY`` set, on both ends of every pairing
    (the protocol has write-write-read shapes — DESIGN.md, "Frames and
    Nagle").  Not configurable, so there is no "off" case to test."""

    @pytest.mark.parametrize("session", [0, 3])
    def test_blocking_listener_and_blocking_dialer(self, session):
        listener = SocketTransport.listen("analyst", session=session)
        client = SocketTransport.connect(
            "peer-1", "analyst", port=listener.port, session=session
        )
        try:
            assert listener.accept(1, timeout=5.0) == ["peer-1"]
            assert _nodelay(listener._sockets["peer-1"]) == 1
            assert _nodelay(client._sockets["analyst"]) == 1
        finally:
            client.close()
            listener.close()

    def test_gateway_accepted_connection(self):
        """Two outcome lines finishing close together on one gateway
        connection are the same write-write-no-read shape."""
        dispatcher = FleetDispatcher(FleetConfig(frontends=1, num_servers=2))
        gateway = FleetGateway(dispatcher, CountQuery(epsilon=1.0, delta=2**-10))
        try:
            with socket.create_connection(("127.0.0.1", gateway.port), 10.0) as conn:
                conn.sendall(b'{"op":"ping"}\n')
                with conn.makefile("rb") as lines:
                    assert json.loads(lines.readline()) == {"ok": True}
                (accepted,) = gateway._conns
                assert _nodelay(accepted) == 1
        finally:
            gateway.close()

    def test_refused_handshake_is_still_just_closed(self):
        """Preparing the socket happens before the gate decides; a
        refused peer sees EOF and nothing else, and is not registered."""
        listener = SocketTransport.listen("analyst")
        mallory = SocketTransport.connect("mallory", "analyst", port=listener.port)
        honest = SocketTransport.connect("peer-1", "analyst", port=listener.port)
        try:
            assert listener.accept(1, timeout=5.0, expected=["peer-1"]) == ["peer-1"]
            assert list(listener._sockets) == ["peer-1"]
            with pytest.raises(ProtocolAbort, match="closed the connection"):
                mallory.recv("analyst", timeout=5.0)
        finally:
            for transport in (mallory, honest, listener):
                transport.close()
