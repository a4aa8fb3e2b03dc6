"""REP007 clean: the helper, a direct setsockopt, and the non-sockets."""

import socket

from repro.net.transport import _prepare_stream_socket


def dialled_through_the_helper(host, port, frame):
    sock = socket.create_connection((host, port), timeout=5.0)
    _prepare_stream_socket(sock)
    sock.sendall(frame)
    return sock


def accepted_through_the_helper(listener, serve):
    conn, _ = listener.accept()
    _prepare_stream_socket(conn)
    serve(conn)


def helper_reached_through_its_module(listener, transport, serve):
    conn, _ = listener.accept()
    transport._prepare_stream_socket(conn)
    serve(conn)


def option_set_directly(host, port):
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock.recv(4)


def option_set_by_a_closure(host, port, run):
    sock = socket.create_connection((host, port))

    def prepare():
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    run(prepare)
    return sock


def dialled_without_a_lookup(sockaddr):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.connect(sockaddr)
    _prepare_stream_socket(sock)
    return sock


def a_listening_socket_is_not_dialled(sockaddr):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(sockaddr)
    listener.listen()
    return listener


def transport_accept_returns_names(transport):
    names = transport.accept(2, 5.0)  # peer names, not a socket
    return names


async def asyncio_streams_prepare_themselves(transport):
    return await transport.accept(1, 5.0)
