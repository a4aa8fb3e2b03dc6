"""Every module under ``src/repro`` is reached from a real entry point,
and every definition in one is named by code that is not a test.

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

Inside a reached module (an allow-listed one is kept whole), each
top-level function and class and each method must be *named* somewhere
in ``src/``, ``examples/`` or ``benchmarks/e2e/`` outside a test file:
as an identifier, an attribute, a keyword, an import, or an
identifier-like token of a string (so ``tracer.py``'s ``TARGETS``
qualnames count).  A name in ``__all__`` or a package ``__init__``'s
re-export is not a use.  Dunder methods, ``visit_*`` methods and
``@register`` lint rules are called by their frameworks.  Matching is
by bare name, so the check is a floor: a definition it passes may still
be dead, one it fails has no caller.  A failing definition is deleted
(with the tests that check only it), moved next to its only test, or
added to :data:`ALLOWED_DEFINITIONS` with what needs it.
"""

from __future__ import annotations

import ast
import functools
import re
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

# Definitions in reached modules kept without a caller, each with what needs it.
ALLOWED_DEFINITIONS = {
    "repro.analysis.error.protocol_error": "Err of the K-prover model grows by √K over one curator",
    "repro.api.engine.add_phase_observer": "ROADMAP 6(a): the phase seam its span hook replaces",
    "repro.api.engine.remove_phase_observer": "ROADMAP 6(a): the phase seam its span hook replaces",
    "repro.core.prover.SkipAdjustmentProver": "soundness case analysis: cheat at Line 9",
    "repro.core.prover.InputInjectingProver": "Figure 1(b): ballot stuffing fails Line 13",
    "repro.dp.smoothness.smoothness_delta": "Lemma 2.1 / B.2: Binomial(nb, ½) is (ε, δ, k)-smooth, exactly",
}
_TOKEN = re.compile(r"[A-Za-z_]\w*")


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


def _names_used(tree: ast.Module, *, package: bool) -> set[str]:
    """Every name ``tree`` mentions, except in ``__all__`` and, for a
    package ``__init__``, in its imports."""
    exported = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt)
    }
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias) and not package:
            names.update(node.name.split("."), [node.asname] if node.asname else [])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_TOKEN.findall(node.value))
    return names


@functools.cache
def _used() -> frozenset[str]:
    paths = [Path(path) for path in collect_files([str(SRC)])]
    for directory in ENTRY_SCRIPTS:
        scripts = sorted((ROOT / directory).glob("*.py"))
        paths += [path for path in scripts if not path.name.startswith("test_")]
    names: set[str] = set()
    for path in paths:
        names |= _names_used(_parse(path), package=_is_package(str(path)))
    return frozenset(names)


def _exempt(node: ast.AST) -> bool:
    name = node.name
    return (
        (name.startswith("__") and name.endswith("__"))
        or name.startswith("visit_")
        or any(isinstance(d, ast.Name) and d.id == "register" for d in node.decorator_list)
    )


@functools.cache
def _definitions() -> dict[str, str]:
    """Qualified name → name of each top-level function, class and method
    in a reached module that is not allow-listed whole."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found: dict[str, ast.AST] = {}
    for module in sorted(_reached(allowed=True) - set(ALLOWED)):
        for node in _parse(_modules()[module]).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                found[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, functions):
                        found[f"{module}.{node.name}.{member.name}"] = member
    return {qualname: node.name for qualname, node in found.items() if not _exempt(node)}


@pytest.mark.parametrize("definition", sorted(set(_definitions()) - set(ALLOWED_DEFINITIONS)))
def test_definition_is_named_outside_tests(definition):
    assert _definitions()[definition] in _used(), (
        f"{definition} is named by no code outside tests: delete it (with the "
        "tests that check only it), move it next to its only test, or add it "
        "to ALLOWED_DEFINITIONS with what needs it"
    )


@pytest.mark.parametrize("definition", sorted(ALLOWED_DEFINITIONS))
def test_definition_allow_list_entry_is_needed(definition):
    """An entry names what needs it and is unreached without the list."""
    assert definition in _definitions(), f"{definition} is allow-listed but is not defined"
    assert ALLOWED_DEFINITIONS[definition].strip(), f"{definition} has no anchor"
    assert _definitions()[definition] not in _used(), (
        f"{definition} is named outside tests: its allow-list entry is stale"
    )
