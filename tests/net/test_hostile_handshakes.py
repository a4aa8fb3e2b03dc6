"""Hostile handshakes against both listeners (ROADMAP 5(b), the handshake).

A handshake is the one frame an unauthenticated peer sends before the
listener knows who it is.  Each listener — the blocking
:meth:`SocketTransport.accept` and the asyncio
:meth:`AsyncSocketTransport.accept` — is pinned to the honest ``(name,
scope)`` and fed seeded mutations of an honest v1 (session 0) and v2
(session 3) handshake, each followed by a half-close so that no read
waits on bytes that are not coming.  Every mutation must end in exactly
one of two ways: one dropped-handshake note, or an admission whose
``(name, scope)`` is the pin.  The accept-deadline abort is the only
exception allowed, and an honest peer dialling after a drop is admitted.
"""

import asyncio
import contextlib
import socket
import struct

import pytest

from repro.errors import ProtocolAbort
from repro.net.aio import AsyncSocketTransport
from repro.net.transport import SocketTransport, pack_frame

HONEST = "prover-0"
MUTATIONS = 64


def _hostile(port: int, frame: bytes) -> socket.socket:
    """Dial, send ``frame``, half-close: the listener sees EOF after it."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.sendall(frame)
    sock.shutdown(socket.SHUT_WR)
    return sock


def _blocking_case(scope: int, frame: bytes) -> str:
    listener = SocketTransport.listen("analyst", session=scope)
    hostile = _hostile(listener.port, frame)
    # Queued behind the hostile connection; accept reads them in order.
    honest = SocketTransport.connect(HONEST, "analyst", port=listener.port, session=scope)
    try:
        try:
            names = listener.accept(1, 5.0, expected=[(HONEST, scope)])
        except ProtocolAbort as exc:
            assert "timed out accepting peers" in str(exc)
            return "deadline"
        assert names == [HONEST]
        admitted = listener._sockets[HONEST].getpeername()
        if admitted == hostile.getsockname():
            assert listener.dropped_handshakes == []
            return "admitted"
        assert len(listener.dropped_handshakes) == 1, listener.dropped_handshakes
        assert admitted == honest._sockets["analyst"].getsockname()
        return "dropped"
    finally:
        for transport in (honest, listener):
            transport.close()
        hostile.close()


async def _async_case(scope: int, frame: bytes) -> str:
    listener = await AsyncSocketTransport.listen("analyst")
    accept = asyncio.ensure_future(listener.accept(1, 5.0, expected=[(HONEST, scope)]))
    hostile = _hostile(listener.port, frame)
    honest = None
    try:
        # The half-close settles the hostile handshake at once: admitted,
        # or dropped with a note.
        for _ in range(1000):
            if accept.done() or listener.dropped_handshakes:
                break
            await asyncio.sleep(0.005)
        if accept.done() and not listener.dropped_handshakes:
            try:
                assert await accept == [HONEST]
            except ProtocolAbort as exc:
                assert "timed out accepting peers" in str(exc)
                return "deadline"
            assert list(listener._conns) == [(HONEST, scope)]
            writer = listener._conns[(HONEST, scope)].writer
            assert writer.get_extra_info("peername") == hostile.getsockname()
            return "admitted"
        assert len(listener.dropped_handshakes) == 1, listener.dropped_handshakes
        honest = SocketTransport.connect(
            HONEST, "analyst", port=listener.port, session=scope
        )
        assert await accept == [HONEST]
        assert list(listener._conns) == [(HONEST, scope)]
        writer = listener._conns[(HONEST, scope)].writer
        assert writer.get_extra_info("peername") == honest._sockets["analyst"].getsockname()
        assert len(listener.dropped_handshakes) == 1
        return "dropped"
    finally:
        if not accept.done():
            accept.cancel()
        with contextlib.suppress(asyncio.CancelledError, ProtocolAbort):
            await accept
        if honest is not None:
            honest.close()
        hostile.close()
        await listener.aclose()


@pytest.mark.parametrize("scope", [0, 3], ids=["v1", "v2-session-3"])
@pytest.mark.parametrize("kind", ["blocking", "async"])
def test_mutated_handshakes_drop_once_or_admit_the_pin(kind, scope, mutations):
    frames = mutations(pack_frame(HONEST.encode(), scope), MUTATIONS, f"handshake-{scope}")
    if kind == "blocking":
        endings = [_blocking_case(scope, frame) for frame in frames]
    else:

        async def sweep():
            return [await _async_case(scope, frame) for frame in frames]

        endings = asyncio.run(sweep())
    assert set(endings) <= {"dropped", "admitted", "deadline"}
    # Most mutations break the handshake; appended bytes leave it whole.
    assert "dropped" in endings and "admitted" in endings


# A v2 handshake announcing session 0xFFFFFFFF under the honest name: a
# scope no listener below serves, so it must be dropped, not admitted.
_ALL_ONES = struct.pack(">II", 0x8000_0000 | len(HONEST), 0xFFFF_FFFF) + HONEST.encode()


def test_all_ones_scope_is_dropped_by_a_session_listener():
    """A blocking session-3 listener expecting the name: the all-ones
    scope is a foreign session, dropped with one note, and the honest
    peer still gets the name."""
    listener = SocketTransport.listen("analyst", session=3)
    squatter = socket.create_connection(("127.0.0.1", listener.port))
    squatter.sendall(_ALL_ONES)
    honest = SocketTransport.connect(HONEST, "analyst", port=listener.port, session=3)
    try:
        assert listener.accept(1, 5.0, expected=[HONEST]) == [HONEST]
        assert len(listener.dropped_handshakes) == 1, listener.dropped_handshakes
        listener.send(HONEST, b"hello")
        assert honest.recv("analyst", timeout=5.0) == b"hello"
    finally:
        squatter.close()
        for transport in (honest, listener):
            transport.close()


def test_all_ones_scope_is_dropped_by_a_pinned_mux_listener():
    async def main():
        listener = await AsyncSocketTransport.listen("analyst")
        accept = asyncio.ensure_future(listener.accept(1, 5.0, expected=[(HONEST, 3)]))
        await asyncio.sleep(0.05)  # the expectation filter is armed
        squatter = socket.create_connection(("127.0.0.1", listener.port))
        squatter.sendall(_ALL_ONES)
        for _ in range(1000):
            if listener.dropped_handshakes:
                break
            await asyncio.sleep(0.005)
        honest = SocketTransport.connect(HONEST, "analyst", port=listener.port, session=3)
        try:
            assert await accept == [HONEST]
            assert len(listener.dropped_handshakes) == 1, listener.dropped_handshakes
            assert list(listener._conns) == [(HONEST, 3)]
        finally:
            squatter.close()
            honest.close()
            await listener.aclose()

    asyncio.run(main())
