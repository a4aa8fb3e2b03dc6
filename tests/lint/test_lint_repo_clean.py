"""The production tree itself must lint clean — this is the same gate
CI runs (``python -m repro lint --strict src/``), kept as a test so a
plain ``pytest`` run catches new violations without the CI round trip."""

import ast
from pathlib import Path

from repro.lint.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


def test_src_tree_has_no_actionable_findings():
    result = lint_paths([SRC])
    assert result.errors == []
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"new lint findings:\n{rendered}"


def test_every_suppression_carries_a_written_justification():
    result = lint_paths([SRC])
    assert result.suppressed, "expected the audited pragma sites to exist"
    for finding, why in result.suppressed:
        assert why.strip(), f"unjustified pragma at {finding.path}:{finding.line}"
        # A justification is a sentence, not a placeholder token.
        assert len(why.split()) >= 4, (
            f"justification too thin at {finding.path}:{finding.line}: {why!r}"
        )


def test_src_tree_runs_no_event_loop():
    """``repro`` has one concurrency model, blocking threads, so no rule
    guards an event loop any more: REP003 (no blocking call inside an
    ``async def``) retired with the fleet front-end's asyncio loop."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        where = path.relative_to(REPO_ROOT)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.AsyncFunctionDef):
                offenders.append(f"{where}:{node.lineno}: async def {node.name}")
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "asyncio" for name in names):
                offenders.append(f"{where}:{node.lineno}: imports asyncio")
    assert offenders == [], (
        "an event loop is back in src/repro; restore REP003 "
        "(src/repro/lint/async_hygiene.py and its fixtures and tests) "
        "from git history before it lands:\n" + "\n".join(offenders)
    )
