"""REP007 — every TCP stream socket is prepared where it is opened.

A frame is one ``sendall``, so Nagle's algorithm has nothing useful to
coalesce — but wherever the protocol writes twice before reading (the
enrolment stream, gateway outcome lines, one-way abort controls) it
holds the second write until the peer's delayed ACK of the first fires,
~40 ms later.  One unprepared socket costs every session that crosses
it a stall no equivalence test can see: the bytes are identical, only
late.  ``TCP_NODELAY`` is therefore not an option anywhere in the
package, and statically the discipline is checkable per function:

    a name bound from ``socket.create_connection(...)`` or from a
    listening socket's ``.accept()`` must, in the same function, be
    passed to ``repro.net.transport._prepare_stream_socket`` or have
    ``setsockopt(..., TCP_NODELAY, ...)`` called on it.

**Bind sites:** ``name = socket.create_connection(...)`` (also as a
``with`` item), and ``name, _ = <listener>.accept()`` /
``name = <listener>.accept()`` — the *zero-argument*, un-awaited
``accept`` of a socket; the transports' own ``accept(count, ...)``
returns peer names and is not a bind site.  asyncio streams are exempt:
the selector transport sets the option itself (pinned by
``tests/net/test_transport.py::TestNoDelay``).
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, ModuleContext, Rule, register

__all__ = ["StreamSocketRule"]

_HELPER = "_prepare_stream_socket"
_OPTION = "TCP_NODELAY"


def _opens_stream_socket(node: ast.expr) -> str | None:
    """``"dialled"`` / ``"accepted"`` when ``node`` yields a connected
    TCP socket (for ``accept``, as the first item of its pair)."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    func = node.func
    if (
        func.attr == "create_connection"
        and isinstance(func.value, ast.Name)
        and func.value.id == "socket"
    ):
        return "dialled"
    if func.attr == "accept" and not node.args and not node.keywords:
        return "accepted"
    return None


def _bound_name(target: ast.expr | None, how: str) -> str | None:
    if how == "accepted" and isinstance(target, ast.Tuple) and target.elts:
        target = target.elts[0]
    return target.id if isinstance(target, ast.Name) else None


def _own_nodes(scope: ast.AST):
    """``scope``'s nodes, stopping at nested function boundaries: a
    nested function is a scope of its own and reports its own sockets."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _opened_sockets(scope: ast.AST):
    """``(name, how, call)`` for every socket ``scope`` itself binds."""
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        elif isinstance(node, ast.withitem):
            value, target = node.context_expr, node.optional_vars
        else:
            continue
        how = _opens_stream_socket(value)
        name = _bound_name(target, how) if how else None
        if name is not None:
            yield name, how, value


def _mentions_option(call: ast.Call) -> bool:
    return any(
        (isinstance(arg, ast.Attribute) and arg.attr == _OPTION)
        or (isinstance(arg, ast.Name) and arg.id == _OPTION)
        for arg in call.args
    )


def _prepared_names(scope: ast.AST) -> set[str]:
    """Names prepared anywhere inside ``scope`` — nested functions
    included: a closure that sets the option still covers the socket."""
    prepared: set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # The helper by either spelling: bare, or as transport.<helper>.
        if _HELPER in (getattr(func, "id", None), getattr(func, "attr", None)):
            prepared.update(a.id for a in node.args if isinstance(a, ast.Name))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "setsockopt"
            and isinstance(func.value, ast.Name)
            and _mentions_option(node)
        ):
            prepared.add(func.value.id)
    return prepared


@register
class StreamSocketRule(Rule):
    code = "REP007"
    name = "stream-socket-unprepared"
    description = (
        "a socket bound from socket.create_connection() or a listener's "
        "accept() gets TCP_NODELAY in the same function (the transport "
        "helper, or setsockopt on it) — no frame waits on a delayed ACK"
    )
    scope = ("repro.net", "repro.loadgen")

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        scopes = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            opened = list(_opened_sockets(scope))
            if not opened:
                continue
            prepared = _prepared_names(scope)
            for name, how, node in opened:
                if name not in prepared:
                    findings.append(
                        ctx.finding(
                            self.code,
                            node,
                            f"{name!r}, a TCP stream socket {how} here, "
                            f"never gets {_OPTION} in this function — pass "
                            f"it to {_HELPER}() (repro.net.transport) "
                            "before the first write",
                        )
                    )
        findings.sort(key=lambda f: (f.line, f.col))
        return findings
