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

_WALL_CLOCK = {"time.time", "time.time_ns"}
_DATETIME_NOW = {"now", "utcnow", "today"}
_UUID_BANNED = {"uuid1", "uuid3", "uuid4"}
_OS_AMBIENT_CALLS = {"getenv", "getcwd", "getcwdb"}
_AMBIENT_ADVICE = "ambient process state; take the value as an argument"
_ENTROPY_ADVICE = "unseeded entropy; use an injected utils.rng handle"


def _banned_call(name: str) -> str | None:
    """Why a call to the dotted ``name`` breaks determinism, or None."""
    module, _, attr = name.rpartition(".")
    if module == "random" and attr != "Random":  # a seeded instance is fine
        return "module-level RNG; draw from an injected utils.rng handle (SeededRNG in tests)"
    if module == "secrets" or name == "os.urandom":
        return _ENTROPY_ADVICE
    if module == "uuid" and attr in _UUID_BANNED:
        return "nondeterministic identifier; derive ids from session seeds/counters"
    if name in _WALL_CLOCK or (name.split(".")[0] == "datetime" and attr in _DATETIME_NOW):
        return "wall clock; use time.monotonic()/perf_counter() for deadlines and elapsed time"
    if (module == "os" and attr in _OS_AMBIENT_CALLS) or name == "pathlib.Path.cwd":
        return _AMBIENT_ADVICE
    return None


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
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(ctx.finding(self.code, node, message))

        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.Call):
                name = ctx.origin(node.func)
                why = _banned_call(name) if name else None
                if why:
                    written = ast.unparse(node.func)
                    source = "" if written == name else f" (from {name.rpartition('.')[0]})"
                    flag(node, f"{written}(){source} — {why}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if ctx.origin(node) == "os.environ":
                    flag(node, f"os.environ — {_AMBIENT_ADVICE}")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters = [gen.iter for gen in node.generators]
            for iter_node in filter(_is_set_expr, iters):
                flag(iter_node, "iteration over an unordered set — wrap in "
                     "sorted(...) so the order is deterministic")
        return findings
