"""REP007 true positives: stream sockets that never get TCP_NODELAY."""

import socket


def dialled_and_written(host, port, frame):
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.sendall(frame)  # the second write waits on a delayed ACK
    return sock


def accepted_and_handed_off(listener, serve):
    conn, _ = listener.accept()
    serve(conn)


def wrong_option(host, port):
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        return sock.recv(4)


def prepared_the_other_one(listener, _prepare_stream_socket):
    first, _ = listener.accept()
    second, _ = listener.accept()
    _prepare_stream_socket(first)
    return first, second


from socket import create_connection


def dialled_by_its_bare_name(host, port, frame):
    sock = create_connection((host, port))  # line 34
    sock.sendall(frame)
    return sock


def dialled_without_a_lookup(sockaddr, frame):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # line 40
    sock.connect(sockaddr)
    sock.sendall(frame)
    return sock
