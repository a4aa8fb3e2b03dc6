"""REP003 true positives: blocking calls inside async def bodies."""

import time


async def poll_forever(transport):
    while True:
        time.sleep(0.1)  # line 8: blocks the loop
        frame = transport.recv("peer")  # line 9: un-awaited blocking recv
        if frame:
            return frame


async def dial(host, port):
    channel = SocketTransport.connect("me", "you", host, port)  # line 15
    listener = SocketTransport("me")  # line 16: sync transport on the loop
    return channel, listener


async def wait_for_peer(listener):
    listener.accept(1)  # line 21: un-awaited accept


import time as _t
from subprocess import run


async def aliased_blocking(argv):
    _t.sleep(0.1)  # line 29: time.sleep under another name
    return run(argv)  # line 30: subprocess.run imported by name
