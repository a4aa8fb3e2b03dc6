"""The ``repro lint`` driver: file collection, pragmas, output.

Usage (see also ``python -m repro lint --help``)::

    python -m repro lint src/                 # report, exit 0
    python -m repro lint --strict src/        # exit 1 on any finding
    python -m repro lint --format json src/   # machine-readable

A raw finding is suppressed only by a ``# repro: allow[RULE] -- why``
pragma on the flagged line (the justification is mandatory;
pragma-hygiene violations surface as REP000 and cannot themselves be
suppressed).  Every other finding is *actionable*: printed, and fatal
under ``--strict``.  Nothing is grandfathered: new code gets a pragma
with a written justification or a fix.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys

from repro.lint import base as _base
from repro.lint.base import Finding, ModuleContext, RULES, parse_pragmas

# Importing the rule modules populates the registry.
from repro.lint import aborts as _aborts  # noqa: F401
from repro.lint import async_hygiene as _async_hygiene  # noqa: F401
from repro.lint import determinism as _determinism  # noqa: F401
from repro.lint import lifecycle as _lifecycle  # noqa: F401
from repro.lint import sockets as _sockets  # noqa: F401

__all__ = ["LintResult", "lint_paths", "collect_files", "module_name_for", "main"]


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        elif path.endswith(".py"):
            out.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(out)


def module_name_for(path: str) -> str:
    """Dotted module name when ``path`` sits under the ``repro`` package,
    else ``''`` (standalone files are checked by every rule)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            candidate = parts[i:]
            # Require the package layout (repro/__init__.py exists).
            package_dir = os.sep.join(parts[: i + 1])
            if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
                continue
            dotted = ".".join(candidate)
            if dotted.endswith(".py"):
                dotted = dotted[: -len(".py")]
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            return dotted
    return ""


class LintResult:
    """Outcome of one lint run."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []  # actionable
        self.suppressed: list[tuple[Finding, str]] = []  # (finding, why)
        self.errors: list[str] = []  # unreadable/unparseable files
        self.checked_files = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_json(self) -> dict:
        return {
            "checked_files": self.checked_files,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [
                dict(f.to_json(), justification=why) for f, why in self.suppressed
            ],
            "errors": self.errors,
            "rules": {
                code: rule.description for code, rule in sorted(RULES.items())
            },
        }


def _load_context(path: str, errors: list[str]) -> ModuleContext | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        errors.append(f"{path}: {type(exc).__name__}: {exc}")
        return None
    rel = os.path.relpath(path)
    reported = rel if not rel.startswith("..") else path
    return ModuleContext(
        path=reported, module=module_name_for(path), source=source, tree=tree
    )


def lint_paths(paths: list[str], *, rules: list[str] | None = None) -> LintResult:
    """Run the registered rules over ``paths`` and resolve suppressions."""
    result = LintResult()
    try:
        files = collect_files(paths)
    except FileNotFoundError as exc:
        result.errors.append(str(exc))
        return result

    selected = {
        code: rule
        for code, rule in RULES.items()
        if rules is None or code in rules
    }
    contexts: list[ModuleContext] = []
    for path in files:
        ctx = _load_context(path, result.errors)
        if ctx is not None:
            contexts.append(ctx)
    result.checked_files = len(contexts)

    raw: list[Finding] = []
    pragma_findings: list[Finding] = []
    pragmas_by_path: dict[str, dict[int, _base.Pragma]] = {}
    for ctx in contexts:
        pragmas, bad = parse_pragmas(ctx)
        pragmas_by_path[ctx.path] = pragmas
        pragma_findings.extend(bad)
        for rule in selected.values():
            if rule.applies_to(ctx.module):
                raw.extend(rule.check_module(ctx))

    for finding in raw:
        pragma = pragmas_by_path.get(finding.path, {}).get(finding.line)
        if pragma is not None and finding.rule in pragma.rules:
            pragma.used = True
            result.suppressed.append((finding, pragma.justification))
            continue
        result.findings.append(finding)

    # Dead pragmas: a suppression that suppressed nothing this run.  Only
    # meaningful for rules that actually ran (partial runs with --rules
    # must not flag pragmas for rules they skipped).
    for path, pragmas in sorted(pragmas_by_path.items()):
        for pragma in pragmas.values():
            if pragma.used or not set(pragma.rules) & set(selected):
                continue
            ctx_lines = next(
                (c for c in contexts if c.path == path), None
            )
            code = ctx_lines.line_text(pragma.line) if ctx_lines else ""
            result.findings.append(
                Finding(
                    rule=_base.PRAGMA_RULE,
                    path=path,
                    line=pragma.line,
                    col=1,
                    message=(
                        f"dead pragma allow[{', '.join(pragma.rules)}] — "
                        "suppresses nothing on this line; remove it"
                    ),
                    code=code,
                )
            )
    result.findings.extend(pragma_findings)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


# CLI -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based protocol-invariant static analysis "
        "(see DESIGN.md 'Static analysis & invariants')",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/ when present, "
        "else the current directory)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any unsuppressed finding remains (the CI mode)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset to run (e.g. REP001,REP004)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code, rule in sorted(RULES.items()):
            print(f"{code}  {rule.name:20s} {rule.description}")
        print(
            f"{_base.PRAGMA_RULE}  {'pragma-hygiene':20s} pragmas need a "
            "justification and must suppress something (not suppressible)"
        )
        return 0

    paths = list(args.paths or [])
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]

    rules: list[str] | None = None
    if args.rules:
        rules = [code.strip() for code in args.rules.split(",") if code.strip()]
        unknown = [code for code in rules if code not in RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    result = lint_paths(paths, rules=rules)

    if args.format == "json":
        json.dump(result.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for finding in result.findings:
            print(finding.render())
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        summary = (
            f"{result.checked_files} file(s) checked: "
            f"{len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed by pragma"
        )
        print(summary)

    if result.errors:
        return 2
    if args.strict and result.findings:
        return 1
    return 0
