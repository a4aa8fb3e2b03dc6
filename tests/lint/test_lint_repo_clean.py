"""The production tree itself must lint clean — this is the same gate
CI runs (``python -m repro lint --strict src/``), kept as a test so a
plain ``pytest`` run catches new violations without the CI round trip."""

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

