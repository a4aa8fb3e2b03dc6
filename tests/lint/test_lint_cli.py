"""CLI behaviour of ``python -m repro lint``: output formats, exit
codes, and pragma resolution (the only suppression)."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint.runner import collect_files, lint_paths, module_name_for

FIXTURES = Path(__file__).parent / "fixtures"
REP001_BAD = str(FIXTURES / "rep001_bad.py")
REP001_CLEAN = str(FIXTURES / "rep001_clean.py")
PRAGMAS = str(FIXTURES / "pragmas.py")


def run_cli(*argv):
    return cli_main(["lint", *argv])


class TestExitCodes:
    def test_advisory_mode_reports_but_exits_zero(self, capsys):
        assert run_cli(REP001_BAD) == 0
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "10 finding(s)" in out

    def test_strict_mode_fails_on_findings(self, capsys):
        assert run_cli("--strict", REP001_BAD) == 1

    def test_strict_mode_passes_clean_file(self, capsys):
        assert run_cli("--strict", REP001_CLEAN) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_an_error(self, capsys):
        assert run_cli("no/such/path") == 2

    def test_syntax_error_is_an_error_not_a_crash(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        assert run_cli(str(broken)) == 2
        assert "SyntaxError" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys):
        assert run_cli("--rules", "REP999", REP001_BAD) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_baseline_option_is_gone(self, capsys):
        """The pragma is the only suppression: ``--baseline`` is a usage
        error, not a silently ignored file."""
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--baseline", "x", REP001_BAD)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err


class TestOutputFormats:
    def test_text_findings_are_path_line_col_rule(self, capsys):
        run_cli(REP001_BAD)
        first = capsys.readouterr().out.splitlines()[0]
        assert "rep001_bad.py:14:" in first and "REP001" in first

    def test_json_output_is_machine_readable(self, capsys):
        assert run_cli("--format", "json", REP001_BAD) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert len(payload["findings"]) == 10
        sample = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message", "code"} <= set(sample)
        assert "REP001" in payload["rules"]

    def test_list_rules_prints_catalog(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP000", "REP001", "REP004", "REP005", "REP007"):
            assert code in out
        assert "REP002" not in out and "REP003" not in out


class TestPragmas:
    """fixtures/pragmas.py holds one of each behaviour (line numbers in
    the fixture's docstring)."""

    def lint(self):
        return lint_paths([PRAGMAS])

    def test_justified_pragma_suppresses(self):
        result = self.lint()
        assert len(result.suppressed) == 1
        finding, why = result.suppressed[0]
        assert finding.rule == "REP001" and finding.line == 10
        assert "demo measurement" in why

    def test_unjustified_pragma_is_rep000_and_does_not_suppress(self):
        result = self.lint()
        rep000 = [f for f in result.findings if f.rule == "REP000"]
        assert any(
            f.line == 14 and "no justification" in f.message for f in rep000
        )
        # The wall-clock finding on that line stays actionable.
        assert any(
            f.rule == "REP001" and f.line == 14 for f in result.findings
        )

    def test_dead_pragma_is_rep000(self):
        result = self.lint()
        assert any(
            f.rule == "REP000" and f.line == 18 and "dead pragma" in f.message
            for f in result.findings
        )

    def test_unsuppressed_finding_stays(self):
        result = self.lint()
        assert any(
            f.rule == "REP001" and f.line == 22 for f in result.findings
        )

    def test_finding_totals(self):
        result = self.lint()
        by_rule = sorted(f.rule for f in result.findings)
        assert by_rule == ["REP000", "REP000", "REP001", "REP001"]

    def test_dead_pragma_not_flagged_when_its_rule_did_not_run(self):
        # Partial runs must not call pragmas dead for rules they skipped.
        result = lint_paths([PRAGMAS], rules=["REP004"])
        assert not any("dead pragma" in f.message for f in result.findings)
        # Pragma *syntax* hygiene still applies on partial runs.
        assert any(
            f.rule == "REP000" and f.line == 14 for f in result.findings
        )


class TestCollection:
    def test_collect_walks_directories_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.py").write_text("y = 2\n", encoding="utf-8")
        (tmp_path / "sub" / "skip.txt").write_text("no\n", encoding="utf-8")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("z = 3\n", encoding="utf-8")
        files = collect_files([str(tmp_path)])
        names = [Path(f).name for f in files]
        assert names == ["b.py", "a.py"]

    def test_module_name_resolution(self):
        import repro.net.frontend as frontend

        assert module_name_for(frontend.__file__) == "repro.net.frontend"
        assert module_name_for(REP001_BAD) == ""

    def test_rules_subset_skips_other_rules(self):
        result = lint_paths([REP001_BAD], rules=["REP004"])
        assert result.findings == []
