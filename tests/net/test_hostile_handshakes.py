"""Hostile handshakes against the listener (ROADMAP 5(b), the handshake).

A handshake is the one frame an unauthenticated peer sends before the
listener knows who it is.  :meth:`SocketTransport.accept` — the one
listener, a solo session's and each fleet session's alike — is pinned to
the honest ``(name, scope)`` and fed seeded mutations of an honest v1
(session 0) and v2 (session 3, and the largest id) handshake, each followed by a half-close
so that no read waits on bytes that are not coming.  Every mutation must end in exactly
one of two ways: one dropped-handshake note, or an admission whose
``(name, scope)`` is the pin.  The accept-deadline abort is the only
exception allowed, and an honest peer dialling after a drop is admitted.
"""

import socket
import struct

import pytest

from repro.errors import ProtocolAbort
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


@pytest.mark.parametrize(
    "scope", [0, 3, 0xFFFF_FFFF], ids=["v1", "v2-session-3", "v2-session-max"]
)
def test_mutated_handshakes_drop_once_or_admit_the_pin(scope, mutations):
    frames = mutations(pack_frame(HONEST.encode(), scope), MUTATIONS, f"handshake-{scope}")
    endings = [_blocking_case(scope, frame) for frame in frames]
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
