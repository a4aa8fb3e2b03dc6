"""Per-rule fixture coverage: every rule proves a true positive and
stays quiet on the idiomatic clean version of the same code."""

import ast
from pathlib import Path

from repro.lint import RULES, ModuleContext

FIXTURES = Path(__file__).parent / "fixtures"


def load(name, module=""):
    path = FIXTURES / name
    source = path.read_text(encoding="utf-8")
    return ModuleContext(
        path=str(path), module=module, source=source, tree=ast.parse(source)
    )


def run_rule(code, fixture, module=""):
    return RULES[code].check_module(load(fixture, module))


class TestREP001Determinism:
    def test_true_positives(self):
        findings = run_rule("REP001", "rep001_bad.py")
        assert len(findings) == 10
        blob = "\n".join(f.message for f in findings)
        for needle in (
            "random.random()",
            "secrets.token_bytes()",
            "os.urandom()",
            "uuid.uuid4()",
            "time.time()",
            "datetime.now()",
            "randint() (from random)",
            "wall_clock() (from time)",
            "unordered set",
        ):
            assert needle in blob, f"missing finding for {needle}"
        assert sum("unordered set" in f.message for f in findings) == 2

    def test_clean(self):
        assert run_rule("REP001", "rep001_clean.py") == []

    def test_environment_and_cwd_reads(self):
        findings = run_rule("REP001", "rep001_ambient_bad.py")
        # Line 33 sits below an `import os.path`, which must not rebind `os`.
        assert sorted(f.line for f in findings) == [10, 14, 18, 18, 18, 22, 22, 26, 33, 33]
        blob = "\n".join(f.message for f in findings)
        for needle in (
            "os.environ",
            "os.getenv()",
            "os.getcwd()",
            "Path.cwd()",
            "pathlib.Path.cwd()",
            "getenv() (from os)",
        ):
            assert needle in blob, f"missing finding for {needle}"
        assert sum(f.message.startswith("os.environ") for f in findings) == 4
        assert any(f.line == 33 and f.message.startswith("os.urandom()") for f in findings)
        assert run_rule("REP001", "rep001_ambient_clean.py") == []

    def test_scope_exempts_bench_but_not_protocol(self):
        rule = RULES["REP001"]
        assert rule.applies_to("repro.crypto.pedersen")
        assert rule.applies_to("repro.net.frontend")
        assert rule.applies_to("repro.core.messages")
        assert not rule.applies_to("repro.bench.runner")
        assert not rule.applies_to("repro.utils.rng")
        # Standalone files (no repro module) always checked.
        assert rule.applies_to("")


def load_real(path, module):
    source = Path(path).read_text(encoding="utf-8")
    return ModuleContext(
        path=str(path), module=module, source=source, tree=ast.parse(source)
    )


class TestREP003AsyncHygiene:
    def test_true_positives(self):
        findings = run_rule("REP003", "rep003_bad.py")
        blob = "\n".join(f.message for f in findings)
        assert "time.sleep()" in blob
        assert ".recv()" in blob
        assert "SocketTransport.connect()" in blob
        assert "SocketTransport(...)" in blob
        assert ".accept()" in blob
        assert "subprocess.run()" in blob
        # An alias or a `from` import does not hide the call.
        assert [f.line for f in findings if "time.sleep()" in f.message] == [8, 29]
        assert len(findings) == 7

    def test_clean(self):
        assert run_rule("REP003", "rep003_clean.py") == []


class TestREP004AbortAttribution:
    def test_true_positives(self):
        findings = run_rule("REP004", "rep004_bad.py")
        blob = "\n".join(f.message for f in findings)
        assert "ProtocolAbort raised without party=" in blob
        assert "EarlyExit raised without party=" in blob
        assert "bare except" in blob
        assert sum("except Exception" in f.message for f in findings) == 2
        assert len(findings) == 5

    def test_clean(self):
        assert run_rule("REP004", "rep004_clean.py") == []


class TestREP005ResourceLifecycle:
    def test_true_positives(self):
        findings = run_rule("REP005", "rep005_bad.py")
        by_message = "\n".join(f.message for f in findings)
        assert "'transport' is released only on the straight-line path" in by_message
        assert "'listener' is acquired here but never released" in by_message
        assert "'worker_process' is released only on the straight-line path" in by_message
        # `s.socket()` after `import socket as s` is socket.socket().
        assert [f.line for f in findings if "'listener'" in f.message] == [15, 32]
        assert len(findings) == 4

    def test_clean(self):
        assert run_rule("REP005", "rep005_clean.py") == []

    def test_pr5_regression_shape(self):
        """The literal serve-launcher bug class PR 5 fixed by hand:
        children started, accept raises, nothing terminates them."""
        source = (
            "def start(context, targets, accept):\n"
            "    processes = [context.Process(target=t) for t in targets]\n"
            "    for process in processes:\n"
            "        process.start()\n"
            "    accept()  # ProtocolAbort on timeout => orphaned children\n"
            "    return processes\n"
        )
        ctx = ModuleContext(
            path="snippet.py", module="", source=source, tree=ast.parse(source)
        )
        findings = RULES["REP005"].check_module(ctx)
        assert len(findings) == 1
        assert "'process'" in findings[0].message


class TestREP007StreamSockets:
    def test_true_positives(self):
        findings = run_rule("REP007", "rep007_bad.py")
        blob = "\n".join(f.message for f in findings)
        assert "'sock', a TCP stream socket dialled here" in blob
        assert "'conn', a TCP stream socket accepted here" in blob
        assert "'second', a TCP stream socket accepted here" in blob
        assert "'first'" not in blob
        # Line 34 dials through `from socket import create_connection`,
        # line 40 connects a socket.socket() to an address resolved earlier.
        assert [f.line for f in findings] == [7, 13, 18, 25, 34, 40]
        assert all(
            "create_connection" in f.code or "accept()" in f.code or "socket.socket(" in f.code
            for f in findings
        )

    def test_clean(self):
        assert run_rule("REP007", "rep007_clean.py") == []

    def test_scope_is_the_socket_opening_modules(self):
        rule = RULES["REP007"]
        assert rule.applies_to("repro.net.transport")
        assert rule.applies_to("repro.net.gateway")
        assert rule.applies_to("repro.loadgen")
        assert not rule.applies_to("repro.bench.runner")
        assert not rule.applies_to("repro.baselines.sketch")

    def test_every_socket_the_package_opens_is_prepared(self):
        """The live invariant, and that the rule sees the real sites: the
        blocking dial (a connected ``socket.socket``) and accept, the
        gateway accept, the load generator."""
        import repro.loadgen
        import repro.net.gateway
        import repro.net.transport
        from repro.lint.sockets import _opened_sockets

        rule = RULES["REP007"]
        sites = 0
        for module in (repro.net.transport, repro.net.gateway, repro.loadgen):
            ctx = load_real(module.__file__, module.__name__)
            assert rule.check_module(ctx) == []
            sites += sum(
                len(list(_opened_sockets(ctx, node)))
                for node in ast.walk(ctx.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        assert sites == 4


class TestRuleCatalog:
    def test_all_rules_registered(self):
        # REP006 is reserved (ROADMAP item 6(e)), not skipped by accident;
        # REP002's invariant is tests/core/test_message_registry_roundtrip.py
        # now, and its number is not reused.
        assert sorted(RULES) == ["REP001", "REP003", "REP004", "REP005", "REP007"]

    def test_descriptions_nonempty(self):
        for rule in RULES.values():
            assert rule.name and rule.description
