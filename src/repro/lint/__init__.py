"""``repro.lint`` — AST-based protocol-invariant static analysis.

``python -m repro lint [paths]`` checks the invariants every PR must
preserve but that dynamic tests only probe point-wise:

* **REP001 determinism** — protocol/wire/crypto paths draw randomness
  from injected :mod:`repro.utils.rng` handles, read clocks
  monotonically, never iterate unordered sets, and never read the
  environment or the working directory.
* **REP004 abort attribution** — ``ProtocolAbort`` raises carry
  ``party=``; no bare ``except``; broad handlers justify themselves.
* **REP005 resource lifecycle** — started processes and opened
  transports are released on the exception path.
* **REP007 stream sockets prepared** — a dialled or accepted TCP socket
  in ``repro.net`` / ``repro.loadgen`` gets ``TCP_NODELAY`` in the
  function that opens it (REP006 is reserved, ROADMAP item 6(e)).

REP002, wire exhaustiveness, is a test of the registry itself now
(``tests/core/test_message_registry_roundtrip.py``).  REP003, async
hygiene (no blocking call inside an ``async def``), retired with the
fleet front-end's event loop: the package runs no event loop, and
``tests/lint/test_lint_repo_clean.py`` fails if one comes back.
Neither number is reused.  Every rule reads a name through one import table,
:meth:`ModuleContext.origin`, so an alias or a ``from`` import does not
hide a call.  Findings are suppressed per line with
``# repro: allow[RULE] -- why`` (justification mandatory); nothing is
grandfathered.
Dependency-free by design: pure ``ast`` + stdlib, and it never imports
the code it checks.
"""

from repro.lint.base import (
    Finding,
    ModuleContext,
    PRAGMA_RULE,
    Rule,
    RULES,
    parse_pragmas,
    register,
)
from repro.lint.runner import (
    LintResult,
    build_parser,
    collect_files,
    lint_paths,
    main,
    module_name_for,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "PRAGMA_RULE",
    "Rule",
    "RULES",
    "parse_pragmas",
    "register",
    "LintResult",
    "build_parser",
    "collect_files",
    "lint_paths",
    "main",
    "module_name_for",
]
