"""REP003 — no blocking calls on the event loop.

A fleet front-end (``net.frontend``) places every session from one
asyncio command loop; a single blocking call in an ``async def`` body
stalls every placement, outcome and health reply behind it.  The
equivalence tests cannot see this — a blocked loop still produces
byte-identical releases, just one session at a time — so concurrency
regressions slip through dynamically.  Statically, the contract is
simple: inside an ``async def``, blocking work is either awaited or
routed to an executor thread (``run_in_executor``, which is where a
front-end serves each session).

Flags, inside ``async def`` bodies only (nested *sync* ``def``/
``lambda`` bodies are skipped — they are what ``run_in_executor``
runs, so blocking calls are legal there):

* ``time.sleep(...)`` — use ``await asyncio.sleep(...)``;
* constructing or connecting the *sync* transports
  (``SocketTransport(...)``, ``SocketTransport.connect/listen``,
  ``MultiprocessTransport(...)``) — blocking transports belong in
  executor threads;
* un-awaited calls to classically blocking I/O methods — ``.recv()``,
  ``.accept()``, ``.sendall()``, ``.recv_into()``, ``.makefile()`` —
  and blocking ``socket`` module constructors
  (``socket.create_connection``, ``socket.create_server``);
* ``subprocess.run/call/check_output`` and ``input()``.

A call is named through the module's imports, so ``_t.sleep()`` after
``import time as _t`` and ``run()`` after ``from subprocess import run``
are the calls they stand for.
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, ModuleContext, Rule, register

__all__ = ["AsyncHygieneRule"]

_SYNC_TRANSPORTS = {"SocketTransport", "MultiprocessTransport", "InMemoryTransport"}
_BLOCKING_METHODS = {"recv", "recv_into", "accept", "sendall", "makefile"}
_BLOCKING_SOCKET_FUNCS = {"create_connection", "create_server", "getaddrinfo"}
_BLOCKING_SUBPROCESS = {"run", "call", "check_call", "check_output"}


def _blocking(name: str, call: ast.Call, awaited: bool) -> str | None:
    """Why a call to the dotted ``name`` blocks the loop, or None."""
    module, _, attr = name.rpartition(".")
    owner = module.rpartition(".")[2]
    if name == "time.sleep":
        return "time.sleep() blocks the event loop — await asyncio.sleep() instead"
    if owner in _SYNC_TRANSPORTS and attr in {"connect", "listen"}:
        return (f"{owner}.{attr}() is the blocking transport — run it in an "
                "executor thread (run_in_executor), never on the loop")
    if module == "socket" and attr in _BLOCKING_SOCKET_FUNCS:
        return f"socket.{attr}() blocks the event loop — use asyncio.open_connection/start_server"
    if module == "subprocess" and attr in _BLOCKING_SUBPROCESS:
        return f"subprocess.{attr}() blocks the event loop — use asyncio.create_subprocess_exec"
    if isinstance(call.func, ast.Attribute) and call.func.attr in _BLOCKING_METHODS:
        if not awaited:
            return (f"un-awaited .{call.func.attr}() in an async body — blocking I/O "
                    "must be awaited or routed through run_in_executor")
    elif attr in _SYNC_TRANSPORTS:
        return (f"{attr}(...) constructed in an async body — blocking "
                "transports belong in executor threads")
    elif name == "input":
        return "input() blocks the event loop"
    elif attr == "sleep" and isinstance(call.func, ast.Name) and not awaited:
        return "un-awaited sleep() in an async body — if this is time.sleep, use asyncio.sleep"
    return None


@register
class AsyncHygieneRule(Rule):
    code = "REP003"
    name = "async-hygiene"
    description = (
        "async def bodies must not make blocking calls; blocking work is "
        "awaited or routed to executor threads"
    )
    # The check only inspects `async def` bodies, so it is safe (and
    # cheap) to apply across the package; the one event loop is the
    # fleet front-end's command loop in net.frontend.
    scope = ("repro",)

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            # A nested sync def or lambda is what an executor runs, so it
            # may block; a nested async def is checked on its own.
            nodes = list(ctx.own_nodes(func))
            awaited = {id(node.value) for node in nodes if isinstance(node, ast.Await)}
            for node in nodes:
                name = ctx.origin(node.func) if isinstance(node, ast.Call) else None
                why = _blocking(name, node, id(node) in awaited) if name else None
                if why:
                    findings.append(ctx.finding(self.code, node, why))
        return findings
