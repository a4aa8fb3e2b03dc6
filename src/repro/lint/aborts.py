"""REP004 — abort attribution and exception-handler discipline.

Verifiable DP's public-auditability story (Section 4.3) rests on every
failure naming a party: a :class:`repro.errors.ProtocolAbort` that
cannot say *who* broke the protocol forces operators to discard the
run with no recourse, and a broad ``except`` that swallows a typo-level
``AttributeError`` converts an implementation bug into a silent
protocol verdict.  Three checks:

* ``raise ProtocolAbort(...)`` / ``raise EarlyExit(...)`` must pass the
  ``party=`` keyword.  Sites where no single party is attributable (an
  accept timeout with several absent peers, a merge inconsistency) must
  say so in a pragma justification — the audit trail is the point.
* a bare ``except:`` is forbidden outright (it eats ``SystemExit`` and
  ``KeyboardInterrupt``).
* ``except Exception`` / ``except BaseException`` (alone or inside a
  tuple) requires a pragma justification — *unless* the handler ends by
  re-raising the caught exception bare (``raise``), the
  cleanup-then-propagate idiom, which preserves the original failure
  and its attribution.
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, ModuleContext, Rule, register

__all__ = ["AbortAttributionRule"]

_ABORT_TYPES = {"ProtocolAbort", "EarlyExit"}
_BROAD = {"Exception", "BaseException"}


def _broad_names(ctx: ModuleContext, type_node: ast.expr) -> list[tuple[ast.expr, str]]:
    """``(node, name)`` for each Exception/BaseException in an except clause."""
    candidates = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    named = [(node, (ctx.origin(node) or "").rpartition(".")[2]) for node in candidates]
    return [(node, name) for node, name in named if name in _BROAD]


def _reraises_bare(handler: ast.ExceptHandler) -> bool:
    """True when the handler body's control flow ends in a bare ``raise``
    (cleanup-then-propagate keeps the original exception alive)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Raise) and stmt.exc is None:
            return True
    return False


@register
class AbortAttributionRule(Rule):
    code = "REP004"
    name = "abort-attribution"
    description = (
        "ProtocolAbort raises must attribute a party; bare except is "
        "forbidden; except Exception needs a justified pragma unless it "
        "re-raises bare"
    )
    scope = ()  # everywhere

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                findings.extend(self._check_raise(ctx, node))
            elif isinstance(node, ast.ExceptHandler):
                findings.extend(self._check_handler(ctx, node))
        return findings

    def _check_raise(self, ctx: ModuleContext, node: ast.Raise) -> list[Finding]:
        exc = node.exc
        if not isinstance(exc, ast.Call):
            return []
        name = (ctx.origin(exc.func) or "").rpartition(".")[2]
        if name not in _ABORT_TYPES:
            return []
        # party=, or **kwargs — the linter cannot see inside; trust it.
        if any(kw.arg in ("party", None) for kw in exc.keywords):
            return []
        return [
            ctx.finding(
                self.code, node,
                f"{name} raised without party= attribution — public "
                "auditability requires naming the misbehaving party (or a "
                "pragma explaining why none is attributable)",
            )
        ]

    def _check_handler(
        self, ctx: ModuleContext, node: ast.ExceptHandler
    ) -> list[Finding]:
        if node.type is None:
            return [
                ctx.finding(
                    self.code, node,
                    "bare except: forbidden — it swallows SystemExit/"
                    "KeyboardInterrupt; name the exception types",
                )
            ]
        broad = _broad_names(ctx, node.type)
        if not broad or _reraises_bare(node):
            return []
        return [
            ctx.finding(
                self.code, anchor,
                f"except {name} without re-raise — narrow the type (ReproError/OSError/...) "
                "or justify the supervisor boundary with a pragma",
            )
            for anchor, name in broad
        ]
