"""A closed-loop driver for ``repro.net.gateway.FleetGateway``.

Each caller thread owns one TCP connection and sends its next session
line only after the previous outcome line came back, so a slow fleet is
offered less load — the behaviour of callers that each wait for a reply.
(``repro.loadgen.run_loadgen`` is the open-loop counterpart; it keeps no
per-arrival samples, which is what a benchmark needs.)

Ops are numbered globally: the callers draw the next index from one
shared counter, so the sequence of sessions offered is the same whatever
the interleaving.  Every sample is kept raw.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time

__all__ = ["run_closed_loop"]

REPLY_TIMEOUT_S = 60.0


def run_closed_loop(
    host: str,
    port: int,
    make_line,
    *,
    callers: int,
    seconds: float | None = None,
    max_ops: int | None = None,
    first: int = 0,
) -> list[dict]:
    """Drive the gateway until ``seconds`` elapsed or ``max_ops`` were sent.

    ``make_line(index)`` returns the request line (bytes, newline
    terminated) of op ``index``.  Returns one sample per op, ordered by
    index: ``{"index", "caller", "start", "end", "reply"}`` with
    ``perf_counter`` instants; a lost or unparsable reply is recorded as
    ``{"status": "lost", ...}`` and ends that caller.
    """
    if seconds is None and max_ops is None:
        raise ValueError("need a time limit or an op limit")
    indexes = itertools.count(first)
    limit = None if max_ops is None else first + max_ops
    deadline = None if seconds is None else time.perf_counter() + seconds
    samples: list[dict] = []
    lock = threading.Lock()

    def caller(number: int) -> None:
        with socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as replies:
                while deadline is None or time.perf_counter() < deadline:
                    with lock:
                        index = next(indexes)
                    if limit is not None and index >= limit:
                        return
                    line = make_line(index)
                    start = time.perf_counter()
                    try:
                        sock.sendall(line)
                        reply = json.loads(replies.readline())
                    except (OSError, ValueError) as exc:
                        reply = {"status": "lost", "reason": f"{type(exc).__name__}: {exc}"}
                    end = time.perf_counter()
                    with lock:
                        samples.append(
                            {"index": index, "caller": number, "start": start, "end": end, "reply": reply}
                        )
                    if reply.get("status") == "lost":
                        return

    threads = [
        threading.Thread(target=caller, args=(number,), name=f"caller-{number}")
        for number in range(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(samples, key=lambda sample: sample["index"])
