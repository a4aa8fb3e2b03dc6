"""Transport semantics: ordering, timeouts, accounting, process crossing."""

import asyncio
import json
import socket
import struct
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.errors import ParameterError, ProtocolAbort
from repro.net.aio import AsyncSocketTransport
from repro.net.fleet import FleetConfig, FleetDispatcher
from repro.net.gateway import FleetGateway
from repro.net.transport import (
    InMemoryHub,
    MultiprocessTransport,
    SocketTransport,
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

    def test_async_listener_and_blocking_dialer(self):
        """Every mux peer's shape (``--async`` and the fleet): a
        session-scoped blocking peer dials an asyncio front-end, whose
        ``start_server`` side gets the option from asyncio's selector
        transport — pinned, not re-coded."""

        async def main():
            listener = await AsyncSocketTransport.listen("analyst")
            accept = asyncio.ensure_future(listener.accept(1, 5.0))
            client = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: SocketTransport.connect(
                    "peer-1", "analyst", port=listener.port, session=2
                ),
            )
            try:
                assert await accept == ["peer-1"]
                accepted = listener._conns[("peer-1", 2)].writer
                assert _nodelay(accepted.get_extra_info("socket")) == 1
                assert _nodelay(client._sockets["analyst"]) == 1
            finally:
                client.close()
                await listener.aclose()

        asyncio.run(main())

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
