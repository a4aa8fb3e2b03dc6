"""Every module under ``src/repro`` is reached from a real entry point.

The import graph is walked statically (``ast`` only, nothing is
imported).  Roots are the command line (``repro.cli``,
``repro.__main__``), the attack scenarios, the ``repro`` imports of
``examples/*.py`` and ``benchmarks/e2e/*.py``, the ``"repro.…"`` module
names ``benchmarks/e2e/tracer.py`` imports through ``importlib``, and
:data:`ALLOWED`.  Tests are never roots: code only a test calls is not
part of the reproduction.

Edges are every ``import repro.x`` / ``from repro.x import n`` anywhere
in a module, function bodies included.  ``from pkg import n`` reaches
``pkg/__init__`` and, when ``n`` is a submodule or a name the
``__init__`` re-exports, the module that defines ``n`` (re-export chains
are followed).  A package ``__init__``'s own imports are *not* edges:
re-exporting a name is not using it.  That rule is sound only while no
``__init__.py`` defines code of its own, which is asserted below.

A module nothing reaches is deleted, or added to :data:`ALLOWED` with
the paper result that needs it (DESIGN.md "What is kept without a
caller").
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

from repro.lint.runner import collect_files, module_name_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.attacks.scenarios")
ENTRY_SCRIPTS = ("examples", "benchmarks/e2e")
DYNAMIC_TARGETS = ROOT / "benchmarks" / "e2e" / "tracer.py"

# Modules kept without a caller, each with the paper result it reproduces.
ALLOWED = {
    "repro.core.simulator": "Proof 1 case 3 / Appendix D",
    "repro.crypto.sigma.interactive": "Appendix C",
    "repro.analysis.distributions": "Theorem 4.1 completeness",
    "repro.mpc.adversary": "Algorithm 1 with one honest party",
    "repro.core.composition": "Contribution 3",
    "repro.sharing.shamir": "Footnote 4",
}


def _parse(path: str | Path) -> ast.Module:
    return ast.parse(Path(path).read_text(encoding="utf-8"), filename=str(path))


def _is_package(path: str) -> bool:
    return Path(path).name == "__init__.py"


@functools.cache
def _modules() -> dict[str, str]:
    """Dotted name → path of every ``.py`` under ``src/repro``."""
    return {module_name_for(path): path for path in collect_files([str(SRC)])}


@functools.cache
def _reexports() -> dict[str, dict[str, tuple[str, str]]]:
    """Package → {name: (module it is imported from, name there)}."""
    out: dict[str, dict[str, tuple[str, str]]] = {}
    for module, path in _modules().items():
        if not _is_package(path):
            continue
        names = out.setdefault(module, {})
        for node in _parse(path).body:
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _resolve(module: str, name: str) -> set[str]:
    """The modules ``from module import name`` reaches."""
    modules = _modules()
    if module not in modules:
        return set()
    reached = {module}
    if f"{module}.{name}" in modules:
        reached.add(f"{module}.{name}")
    elif name in _reexports().get(module, {}):
        source, source_name = _reexports()[module][name]
        reached |= _resolve(source, source_name)
    return reached


def _with_parents(module: str) -> set[str]:
    parts = module.split(".")
    return {".".join(parts[: i + 1]) for i in range(len(parts))} & set(_modules())


def _edges(tree: ast.Module) -> set[str]:
    """Every ``repro`` module an import anywhere in ``tree`` reaches."""
    reached: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    reached |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                reached |= _with_parents(node.module)
                for alias in node.names:
                    reached |= _resolve(node.module, alias.name)
    return reached


def _roots(*, allowed: bool) -> set[str]:
    roots = set(ENTRY_POINTS)
    for directory in ENTRY_SCRIPTS:
        for path in sorted((ROOT / directory).glob("*.py")):
            roots |= _edges(_parse(path))
    for node in ast.walk(_parse(DYNAMIC_TARGETS)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("repro."):
                roots |= _with_parents(node.value)
    if allowed:
        roots |= set(ALLOWED)
    return roots


@functools.cache
def _reached(*, allowed: bool) -> frozenset[str]:
    modules = _modules()
    seen: set[str] = set()
    todo = sorted(_roots(allowed=allowed))
    while todo:
        module = todo.pop()
        if module in seen or module not in modules:
            continue
        seen.add(module)
        if not _is_package(modules[module]):
            todo.extend(_edges(_parse(modules[module])) - seen)
    return frozenset(seen)


@pytest.mark.parametrize("module", sorted(_modules()))
def test_module_is_reached_from_an_entry_point(module):
    assert module in _reached(allowed=True), (
        f"{module} is imported by no entry point: delete it, or add it to "
        "ALLOWED with the paper result that needs it"
    )


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_allow_list_entry_is_needed(module):
    """An entry names a paper anchor and is unreached without the list."""
    assert module in _modules(), f"{module} is allow-listed but does not exist"
    assert ALLOWED[module].strip(), f"{module} is allow-listed without an anchor"
    assert module not in _reached(allowed=False), (
        f"{module} is reached from an entry point: its allow-list entry is stale"
    )


def test_package_inits_define_nothing():
    """The walker ignores a package ``__init__``'s imports; that is sound
    only while no ``__init__.py`` has functions or classes of its own."""
    for module, path in sorted(_modules().items()):
        if _is_package(path):
            defined = [
                node.name for node in _parse(path).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            ]
            assert defined == [], f"{module}/__init__.py defines {defined}"
