"""Core types for ``repro lint``: findings, pragmas, and the rule registry.

The linter is a *protocol-invariant* checker, not a style tool.  Every
rule encodes one invariant the test suite can only probe dynamically —
an unseeded RNG in a protocol path, a blocking call on the event loop,
an unattributed abort, a resource leaked on the exception path, a
stream socket left to Nagle.  Rules work purely on the AST (plus raw
source lines for pragma extraction); nothing here imports the modules it
checks, so linting cannot execute protocol code.  Every rule reads a
name the same way, through :meth:`ModuleContext.origin` (the module's one
import table), so an alias or a ``from`` import cannot hide a call.

Suppression contract
--------------------
A finding is suppressed by a *pragma comment on the flagged line*::

    risky_call()  # repro: allow[REP001] -- seeded upstream by the harness

The justification text after ``--`` (or ``—``/``:``) is **required**:
an empty justification is itself a finding (:data:`PRAGMA_RULE`), as is
a pragma that suppresses nothing (dead pragmas rot).  Pragma-hygiene
findings cannot themselves be suppressed.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Finding",
    "ModuleContext",
    "Pragma",
    "Rule",
    "RULES",
    "register",
    "PRAGMA_RULE",
    "parse_pragmas",
]

# Pseudo-rule for pragma hygiene (bad or dead pragmas).  Not in the
# registry: it has no checker of its own and cannot be suppressed.
PRAGMA_RULE = "REP000"


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source line; ``code`` is the
    stripped source text of the flagged line."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    code: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
        }


@dataclass
class ModuleContext:
    """Everything a rule gets to see about one source file."""

    path: str  # as reported in findings (relative when possible)
    module: str  # dotted module name ('' when not under the repro package)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @functools.cached_property
    def imports(self) -> dict[str, str]:
        """Local name → the dotted name an import binds it to, for every
        import in the module, inside functions too (the last one wins).
        ``import os.path`` binds ``os`` to ``os``, not to ``os.path``."""
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    table[alias.asname or bound] = bound
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table

    def origin(self, expr: ast.AST) -> str | None:
        """The dotted name a Name or Attribute chain is bound to through
        the module's imports: ``_t.sleep`` after ``import time as _t`` is
        ``time.sleep``.  A name no import binds stands for itself (a
        builtin, a local, a class defined here); any other expression,
        such as a call's result, is None."""
        if isinstance(expr, ast.Attribute):
            base = self.origin(expr.value)
            return None if base is None else f"{base}.{expr.attr}"
        if isinstance(expr, ast.Name):
            return self.imports.get(expr.id, expr.id)
        return None

    @staticmethod
    def own_nodes(scope: ast.AST):
        """``scope``'s nodes below it, stopping at a nested ``def`` or
        ``lambda``: that is a scope of its own (yielded, not entered).
        Source order, depth first."""
        stack = list(ast.iter_child_nodes(scope))[::-1]
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(list(ast.iter_child_nodes(node))[::-1])

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            col=col,
            message=message,
            code=self.line_text(line),
        )


class Rule:
    """A per-module checker.  Subclasses set the class attributes and
    implement :meth:`check_module`.

    ``scope`` is a tuple of dotted-module prefixes the rule applies to
    *within the repro package*.  Files that do not resolve to a repro
    module at all (test fixtures, scratch files) are checked by every
    rule — scoping narrows the production tree, it never exempts code
    the user pointed the linter at explicitly.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scope: tuple[str, ...] = ()  # empty = everywhere

    def applies_to(self, module: str) -> bool:
        if not module or not self.scope:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        raise NotImplementedError


RULES: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by its ``code``) to the registry."""
    instance = rule_cls()
    if not instance.code:
        raise ValueError(f"{rule_cls.__name__} has no rule code")
    if instance.code in RULES:
        raise ValueError(f"duplicate rule code {instance.code}")
    RULES[instance.code] = instance
    return rule_cls


# Pragma parsing --------------------------------------------------------------

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]"
    r"(?:\s*(?:--|—|–|:)\s*(?P<why>.*?))?\s*$"
)
_RULE_LIST_RE = re.compile(r"^REP\d{3}(\s*,\s*REP\d{3})*$")


@dataclass
class Pragma:
    """A parsed ``# repro: allow[...]`` suppression comment."""

    line: int
    rules: tuple[str, ...]
    justification: str
    used: bool = False


def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """(line, text) for every comment token.  Tokenizing (rather than
    regex over raw lines) keeps pragma *documentation* inside docstrings
    and string literals from parsing as live suppressions."""
    out: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass  # the file already failed to parse; runner reports it
    return out


def parse_pragmas(ctx: ModuleContext) -> tuple[dict[int, Pragma], list[Finding]]:
    """Extract per-line pragmas; malformed ones become REP000 findings."""
    pragmas: dict[int, Pragma] = {}
    findings: list[Finding] = []

    def bad(lineno: int, message: str) -> None:
        findings.append(
            Finding(
                rule=PRAGMA_RULE,
                path=ctx.path,
                line=lineno,
                col=1,
                message=message,
                code=ctx.line_text(lineno),
            )
        )

    for lineno, text in _comment_tokens(ctx.source):
        if "repro:" not in text or "allow" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            # A comment that *looks* like a suppression attempt but does
            # not parse must not silently fail open.
            if re.search(r"#\s*repro:\s*allow", text):
                bad(lineno, "malformed pragma: expected "
                    "'# repro: allow[RULE] -- justification'")
            continue
        rules_text = match.group("rules").strip()
        if not _RULE_LIST_RE.match(rules_text):
            bad(lineno, f"pragma names no valid rule list: {rules_text!r}")
            continue
        rules = tuple(r.strip() for r in rules_text.split(","))
        if PRAGMA_RULE in rules:
            bad(lineno, f"{PRAGMA_RULE} (pragma hygiene) cannot be suppressed")
            continue
        why = (match.group("why") or "").strip()
        if not why:
            bad(
                lineno,
                f"pragma allow[{rules_text}] has no justification — write "
                "why the finding is acceptable after '--'",
            )
            continue
        pragmas[lineno] = Pragma(line=lineno, rules=rules, justification=why)
    return pragmas, findings
