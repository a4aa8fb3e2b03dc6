"""REP001 — determinism in protocol, wire, and crypto paths.

The repo's load-bearing guarantee is that every serving topology
releases bytes identical to the seeded in-process ``Session``.  That
only holds if *all* randomness flows through injected
:class:`repro.utils.rng.RNG` handles and all deadlines are monotonic.
An ``os.urandom`` call, a module-level ``random.*`` draw, a ``uuid4``
tie-breaker, or a wall-clock ``time.time()`` deadline in a protocol
path silently breaks byte-equivalence in ways the equivalence tests can
only catch if a test happens to cross that code path with a seed.

Flags, inside the protocol/wire/crypto scope:

* calls into the ``random`` module (``random.random()``,
  ``random.randint()``, …) — including names imported *from* it
  (``from random import shuffle``).  Constructing an explicitly seeded
  ``random.Random(seed)`` instance is allowed; ``random.SystemRandom``
  is not (it is ``os.urandom`` in a hat).
* ``os.urandom``, any ``secrets.*`` call, and ``uuid.uuid1/3/4``
  — unseeded entropy must come from ``utils.rng.SystemRNG`` via an
  injected handle so tests can swap in ``SeededRNG``.
* wall-clock reads used where code needs "now": ``time.time()``,
  ``time.time_ns()``, ``datetime.now()``/``utcnow()``/``today()`` —
  deadlines and elapsed-time math must use ``time.monotonic()`` /
  ``time.perf_counter()`` (NTP steps must not fire protocol timeouts).
* iteration over an unordered ``set`` (a set literal, ``set(...)``
  call, or set comprehension as the iterable of a ``for`` or a
  comprehension clause) — Python sets iterate in hash order, which is
  salted for strings; anything order-sensitive must ``sorted(...)``
  first.
* reads of the process's surroundings: ``os.environ``, ``os.getenv()``,
  ``os.getcwd()``, ``Path.cwd()`` — what a protocol or crypto function
  returns must follow from its arguments, not from a variable or a
  directory the caller happened to start in (``repro.bench`` is out of
  scope: its workload size, ``REPRO_PAPER_SCALE``, is a run setting).
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, ModuleContext, Rule, register

__all__ = ["DeterminismRule"]

# Wall-clock attribute calls: module alias -> banned attributes.
_WALL_CLOCK = {
    "time": {"time", "time_ns"},
    "datetime": {"now", "utcnow", "today"},
}
_UUID_BANNED = {"uuid1", "uuid3", "uuid4"}
_RANDOM_ALLOWED = {"Random"}  # explicit seeded instance is fine
_OS_AMBIENT_CALLS = {"getenv", "getcwd", "getcwdb"}
_AMBIENT_ADVICE = "ambient process state; take the value as an argument"


def _collect_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """Map local alias -> module, and local name -> 'module.attr' for
    ``from module import name`` bindings."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules, names


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


@register
class DeterminismRule(Rule):
    code = "REP001"
    name = "determinism"
    description = (
        "protocol/wire/crypto paths must draw randomness from injected "
        "utils.rng handles, read clocks monotonically, never iterate an "
        "unordered set, and never read the environment or working directory"
    )
    scope = (
        "repro.core",
        "repro.crypto",
        "repro.mpc",
        "repro.api",
        "repro.net",
        "repro.sharing",
        "repro.dp",
        "repro.loadgen",
    )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        modules, from_names = _collect_imports(ctx.tree)
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(ctx.finding(self.code, node, message))

        def check_call(node: ast.Call) -> None:
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base = modules.get(func.value.id)
                attr = func.attr
                if base == "random" and attr not in _RANDOM_ALLOWED:
                    flag(node, f"module-level random.{attr}() — draw from an "
                         "injected utils.rng handle (SeededRNG in tests)")
                elif base == "secrets":
                    flag(node, f"secrets.{attr}() — unseeded entropy; use "
                         "utils.rng.SystemRNG via an injected RNG handle")
                elif base == "os" and attr == "urandom":
                    flag(node, "os.urandom() — unseeded entropy; use an "
                         "injected utils.rng handle")
                elif base == "os" and attr in _OS_AMBIENT_CALLS:
                    flag(node, f"os.{attr}() — {_AMBIENT_ADVICE}")
                elif attr == "cwd" and from_names.get(func.value.id) == "pathlib.Path":
                    flag(node, f"Path.cwd() — {_AMBIENT_ADVICE}")
                elif base == "uuid" and attr in _UUID_BANNED:
                    flag(node, f"uuid.{attr}() — nondeterministic identifier; "
                         "derive ids from session seeds/counters")
                elif base in _WALL_CLOCK and attr in _WALL_CLOCK[base]:
                    flag(node, f"{base}.{attr}() — wall clock; use "
                         "time.monotonic()/perf_counter() for deadlines "
                         "and elapsed time")
                elif (
                    base is None
                    and from_names.get(func.value.id) == "datetime.datetime"
                    and attr in _WALL_CLOCK["datetime"]
                ):
                    flag(node, f"datetime.{attr}() — wall clock; protocol "
                         "code needs monotonic time")
            elif isinstance(func, ast.Attribute):
                # datetime.datetime.now(), pathlib.Path.cwd() — two-level
                # attribute chains.
                value = func.value
                if not (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)):
                    return
                base = modules.get(value.value.id)
                if base == "datetime" and func.attr in _WALL_CLOCK["datetime"]:
                    flag(node, f"datetime.{value.attr}.{func.attr}() — wall "
                         "clock; protocol code needs monotonic time")
                elif base == "pathlib" and (value.attr, func.attr) == ("Path", "cwd"):
                    flag(node, f"pathlib.Path.cwd() — {_AMBIENT_ADVICE}")
            elif isinstance(func, ast.Name):
                origin = from_names.get(func.id)
                if origin is None:
                    return
                module, _, attr = origin.rpartition(".")
                if module == "random" and attr not in _RANDOM_ALLOWED:
                    flag(node, f"{func.id}() (from random) — draw from an "
                         "injected utils.rng handle")
                elif module == "secrets":
                    flag(node, f"{func.id}() (from secrets) — unseeded "
                         "entropy; use an injected utils.rng handle")
                elif module == "os" and attr == "urandom":
                    flag(node, "urandom() (from os) — unseeded entropy; use "
                         "an injected utils.rng handle")
                elif module == "os" and attr in _OS_AMBIENT_CALLS:
                    flag(node, f"{func.id}() (from os) — {_AMBIENT_ADVICE}")
                elif module == "uuid" and attr in _UUID_BANNED:
                    flag(node, f"{func.id}() (from uuid) — nondeterministic "
                         "identifier")
                elif module == "time" and attr in _WALL_CLOCK["time"]:
                    flag(node, f"{func.id}() (from time) — wall clock; use "
                         "time.monotonic()/perf_counter()")
                elif module == "datetime" and attr == "datetime":
                    pass  # the class itself; calls are caught above

        def check_iteration(iter_node: ast.expr) -> None:
            if _is_set_expr(iter_node):
                flag(iter_node, "iteration over an unordered set — wrap in "
                     "sorted(...) so the order is deterministic")

        def is_environ(node: ast.AST) -> bool:
            if isinstance(node, ast.Name):
                return from_names.get(node.id) == "os.environ"
            return (
                isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id) == "os"
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                check_call(node)
            elif is_environ(node):
                flag(node, f"os.environ — {_AMBIENT_ADVICE}")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                check_iteration(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    check_iteration(gen.iter)
        return findings
