"""REP005 true positives: resources leaked on the exception path."""

import socket
from multiprocessing import Process


def happy_path_close_only(host, port):
    transport = SocketTransport.connect("me", "you", host, port)  # line 8
    frame = transport.recv("peer")  # a timeout abort here leaks the connection
    transport.close()  # straight-line release only
    return frame


def never_released(host, port):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # line 14
    listener.bind((host, port))
    listener.listen(4)
    return None  # the socket never escapes and is never closed


def children_leak_on_failure(target, risky_setup):
    worker_process = Process(target=target)  # process-like by creation
    worker_process.start()  # line 22
    risky_setup()  # raises => the child is orphaned
    worker_process.join()


import socket as s


def aliased_listener(host, port):
    listener = s.socket(s.AF_INET, s.SOCK_STREAM)  # line 32: socket.socket
    listener.bind((host, port))
    return None
