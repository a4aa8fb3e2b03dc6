"""``repro.lint`` — AST-based protocol-invariant static analysis.

``python -m repro lint [paths]`` checks the invariants every PR must
preserve but that dynamic tests only probe point-wise:

* **REP001 determinism** — protocol/wire/crypto paths draw randomness
  from injected :mod:`repro.utils.rng` handles, read clocks
  monotonically, never iterate unordered sets, and never read the
  environment or the working directory.
* **REP002 wire exhaustiveness** — every message class in
  :mod:`repro.core.messages` has a uniquely-tagged codec in
  :mod:`repro.crypto.serialization`'s registry.
* **REP003 async hygiene** — no blocking calls inside ``async def``
  bodies; blocking work is awaited or executor-routed.
* **REP004 abort attribution** — ``ProtocolAbort`` raises carry
  ``party=``; no bare ``except``; broad handlers justify themselves.
* **REP005 resource lifecycle** — started processes and opened
  transports are released on the exception path.
* **REP007 stream sockets prepared** — a dialled or accepted TCP socket
  in ``repro.net`` / ``repro.loadgen`` gets ``TCP_NODELAY`` in the
  function that opens it (REP006 is reserved, ROADMAP item 6(e)).

Findings are suppressed per line with ``# repro: allow[RULE] -- why``
(justification mandatory) or grandfathered via ``lint-baseline.json``.
Dependency-free by design: pure ``ast`` + stdlib, and it never imports
the code it checks.
"""

from repro.lint.base import (
    Finding,
    ModuleContext,
    PRAGMA_RULE,
    ProjectRule,
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
    "ProjectRule",
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
