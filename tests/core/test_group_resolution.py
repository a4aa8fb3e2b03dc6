"""Which ristretto255 a name resolves to, decided from the host alone.

``core.params._resolve_group("ristretto255")`` is libsodium's group when
the library loads and passes its self-test, the pure-Python reference
otherwise — once per process, lazily, with nothing to configure.  These
tests re-run that decision under a loader or self-test made to fail and
pin that the fallback is the reference and releases the same bytes, and
that nothing opens the library before a ristretto255 name is resolved.

The Schnorr groups' membership test is decided the same way: libgmp's
``mpz_jacobi`` (``crypto/gmp.py``) where it loads and passes its
self-test, ``numth.jacobi_symbol`` otherwise, opened at the first test.
"""

import ast
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.api import CountQuery, Session
from repro.core.params import _resolve_group, setup
from repro.crypto import gmp, schnorr_group, sodium
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.schnorr_group import NAMED_GROUPS, SchnorrGroup
from repro.crypto.serialization import encode_message
from repro.crypto.sodium import SodiumRistrettoGroup
from repro.errors import NotOnGroupError
from repro.net.wire import decode_params, encode_params
from repro.utils.rng import SeededRNG

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((ROOT / "tests" / "api" / "golden_releases.json").read_text())


@pytest.fixture()
def fresh_decision(monkeypatch):
    """Make this test decide again; the process-wide decision (and the
    group object other tests hold elements of) comes back afterwards."""
    decide = SodiumRistrettoGroup.instance.__wrapped__
    monkeypatch.setattr(
        SodiumRistrettoGroup, "instance", staticmethod(lru_cache(maxsize=1)(decide))
    )


def golden_count_release() -> str:
    session = Session(
        CountQuery(1.0, 2**-10),
        num_provers=2,
        group="ristretto255",
        nb_override=8,
        rng=SeededRNG("golden-0"),
    )
    session.submit([1, 0, 1, 1, 0, 1, 0])
    return hashlib.sha256(encode_message(session.release().release)).hexdigest()


PINNED = GOLDEN["count-k2/ristretto255/golden-0/buffered"]["sha256"]


def assert_falls_back_to_the_reference():
    reference = RistrettoGroup.instance()
    assert _resolve_group("ristretto255") is reference
    assert setup(1.0, 2**-10, group="ristretto255", nb_override=8).group is reference
    params = setup(1.0, 2**-10, group="ristretto255", nb_override=8, num_provers=2)
    assert decode_params(encode_params(params)).group is reference
    assert golden_count_release() == PINNED


class TestFallback:
    def test_loader_finds_no_library(self, fresh_decision, monkeypatch):
        monkeypatch.setattr(sodium, "_load_library", lambda: None)
        assert_falls_back_to_the_reference()

    def test_dlopen_fails_for_every_soname(self, fresh_decision, monkeypatch):
        tried = []

        def refuse(name, *args, **kwargs):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert sodium._load_library() is None
        assert tried == ["libsodium.so.23", "libsodium.so.26", "libsodium.so"]
        assert_falls_back_to_the_reference()

    def test_library_without_ristretto_symbols(self, fresh_decision, monkeypatch):
        class Minimal:
            def __getattr__(self, symbol):
                raise AttributeError(f"undefined symbol: {symbol}")

        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: Minimal())
        assert sodium._load_library() is None
        assert_falls_back_to_the_reference()

    def test_self_test_fails(self, fresh_decision, monkeypatch):
        monkeypatch.setattr(SodiumRistrettoGroup, "_self_test", lambda self: False)
        assert_falls_back_to_the_reference()

    def test_a_wrong_answer_fails_the_self_test(self):
        group = SodiumRistrettoGroup.instance()
        if group is None:
            pytest.skip("libsodium with ristretto255 is not loadable on this host")
        assert group._self_test()
        honest = group._ffi_add
        try:
            group._ffi_add = group._ffi_sub  # a library whose add is wrong
            assert not group._self_test()
        finally:
            group._ffi_add = honest
        assert group._self_test()


@pytest.fixture()
def fresh_gmp_decision(monkeypatch):
    """Make this test decide again whether libgmp computes membership; the
    process-wide decision comes back afterwards."""
    monkeypatch.setattr(gmp, "_native", lru_cache(maxsize=1)(gmp._native.__wrapped__))


def probes(p: int) -> tuple[int, ...]:
    """Out of range, 1, residues and non-residues (a safe prime is
    ≡ 3 (mod 4), so −1 is a non-residue and so is p minus a square)."""
    square = pow(p // 5, 2, p)
    return (0, 1, 4, square, p - square, p - 1, p, p + 1)


def membership_verdicts(group: SchnorrGroup) -> list:
    """What ``from_bytes`` makes of the probes: the element's value, or the
    rejection's type and message."""
    verdicts = []
    for value in probes(group.modulus):
        try:
            verdicts.append(group.from_bytes(value.to_bytes(group.element_bytes, "big")).value)
        except NotOnGroupError as exc:
            verdicts.append((type(exc), str(exc)))
    return verdicts


def reference_verdicts(p: int) -> list:
    zero, one, four, square, _, _, top, above = probes(p)
    not_in_gq = (NotOnGroupError, "value is not a quadratic residue (not in Gq)")
    outside = [(NotOnGroupError, f"{v} outside Z*p") for v in (zero, top, above)]
    return [outside[0], one, four, square, not_in_gq, not_in_gq, *outside[1:]]


def assert_membership_falls_back_to_the_pure_loop(monkeypatch):
    calls = []
    pure = schnorr_group.jacobi_symbol
    monkeypatch.setattr(
        schnorr_group, "jacobi_symbol", lambda a, n: calls.append(n) or pure(a, n)
    )
    assert gmp.jacobi_modulo(NAMED_GROUPS["p64-sim"]) is None
    for name in ("p64-sim", "modp-2048"):
        fresh = SchnorrGroup.named.__wrapped__(name)
        assert membership_verdicts(fresh) == reference_verdicts(fresh.modulus)
        assert calls.count(fresh.modulus) == 4  # 4, square, p − square, p − 1


class TestGmpFallback:
    """The libgmp twin of :class:`TestFallback`: a Schnorr group's membership
    test falls back to ``numth.jacobi_symbol`` with identical verdicts."""

    def test_the_decided_path_gives_the_reference_verdicts(self):
        for name in ("p64-sim", "modp-2048"):
            group = SchnorrGroup.named(name)
            assert membership_verdicts(group) == reference_verdicts(group.modulus)

    def test_loader_finds_no_library(self, fresh_gmp_decision, monkeypatch):
        monkeypatch.setattr(gmp, "_load_library", lambda: None)
        assert_membership_falls_back_to_the_pure_loop(monkeypatch)

    def test_dlopen_fails_for_every_soname(self, fresh_gmp_decision, monkeypatch):
        tried = []

        def refuse(name, *args, **kwargs):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert gmp._load_library() is None
        assert tried == ["libgmp.so.10", "libgmp.so"]
        assert_membership_falls_back_to_the_pure_loop(monkeypatch)

    def test_library_without_mpz_jacobi(self, fresh_gmp_decision, monkeypatch):
        class Minimal:
            def __getattr__(self, symbol):
                raise AttributeError(f"undefined symbol: {symbol}")

        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: Minimal())
        assert gmp._load_library() is None
        assert_membership_falls_back_to_the_pure_loop(monkeypatch)

    def test_self_test_fails(self, fresh_gmp_decision, monkeypatch):
        monkeypatch.setattr(gmp, "_self_test", lambda jacobi, limb_bits: False)
        assert_membership_falls_back_to_the_pure_loop(monkeypatch)

    def test_a_wrong_answer_fails_the_self_test(self):
        loaded = gmp._load_library()
        if loaded is None:
            pytest.skip("libgmp is not loadable on this host")
        jacobi, limb_bits = loaded
        assert gmp._self_test(jacobi, limb_bits)

        def low_limb_only(a, n):  # a library that ignores all but one limb
            return jacobi(gmp._Mpz(0, min(a._mp_size, 1), a._mp_d), n)

        for wrong in (
            lambda a, n: -jacobi(a, n),
            lambda a, n: 1,  # accepts every value
            low_limb_only,
        ):
            assert not gmp._self_test(wrong, limb_bits)
        assert gmp._self_test(jacobi, limb_bits)


class TestResolution:
    def test_decided_once_and_shared_by_setup_and_the_wire(self):
        group = _resolve_group("ristretto255")
        assert group is _resolve_group("ristretto255")
        assert group.name == "ristretto255"
        params = setup(1.0, 2**-10, group="ristretto255", nb_override=8)
        assert params.group is group
        assert decode_params(encode_params(params)).group is group
        native = SodiumRistrettoGroup.instance()
        assert group is (native if native is not None else RistrettoGroup.instance())

    def test_an_explicit_group_object_is_honoured(self):
        reference = RistrettoGroup.instance()
        assert _resolve_group(reference) is reference
        assert setup(1.0, 2**-10, group=reference, nb_override=8).group is reference

    def test_release_is_the_pinned_one_whichever_backend_runs(self):
        assert golden_count_release() == PINNED


def test_sim_group_session_never_opens_the_library():
    """``import repro`` plus a p64-sim session: neither native module is
    imported and neither libsodium nor libgmp is mapped into the process
    (an in-process session decodes no element).  The first decode then
    maps libgmp wherever it passes its self-test — so the absence above
    is not the library merely being named otherwise."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.api import CountQuery, Session\n"
        "from repro.utils.rng import SeededRNG\n"
        "def maps():\n"
        "    try:\n"
        "        return open('/proc/self/maps').read()\n"
        "    except OSError:\n"
        "        return ''\n"
        "s = Session(CountQuery(1.0, 2**-10), group='p64-sim', nb_override=8,"
        " rng=SeededRNG('lazy'))\n"
        "s.submit([1, 0, 1])\n"
        "assert s.release().accepted\n"
        "for module in ('repro.crypto.sodium', 'repro.crypto.gmp'):\n"
        "    assert module not in sys.modules, module + ' imported'\n"
        "assert 'libsodium' not in maps(), 'libsodium mapped'\n"
        "assert 'libgmp' not in maps(), 'libgmp mapped'\n"
        "g = s.params.group\n"
        "assert g.from_bytes(g.generator().to_bytes()) == g.generator()\n"
        "from repro.crypto import gmp\n"
        "if maps() and gmp._native() is not None:\n"
        "    assert 'libgmp' in maps(), 'libgmp not mapped by its first use'\n"
        "print('lazy-ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "lazy-ok"


# What an in-process p64-sim session must never load: the asyncio side
# (event loop, thread pool, TLS, HTTP server), the serving stack that
# only the distributed drivers run, scipy, the curve of another group
# and the modules kept for the paper's proofs only (DESIGN.md "Cold
# start").
UNUSED_BY_THE_SESSION_PATH = (
    "asyncio",
    "concurrent.futures",
    "http.server",
    "ssl",
    "scipy",
    "multiprocessing",
    "repro.net.frontend",
    "repro.net.metrics",
    "repro.net.roles",
    "repro.net.transport",
    "repro.crypto.ristretto",
    "repro.core.simulator",
    "repro.crypto.sigma.interactive",
)


def _program_imports(path: Path) -> list[str]:
    """The ``repro`` import statements of a script, as source lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
    ]


def test_benchmark_imports_load_only_the_session_path():
    """Import what the named benchmark's workloads import, run a streamed
    p64-sim session: nothing the session path does not run is loaded."""
    imports = _program_imports(ROOT / "benchmarks" / "e2e" / "workloads.py")
    assert any("repro.net.serve" in line for line in imports)
    script = "\n".join(
        ["import sys", *imports]
        + [
            "from repro.api import CountQuery, Session",
            "from repro.utils.rng import SeededRNG",
            "s = Session(CountQuery(1.0, 2**-10), num_provers=2, group='p64-sim',"
            " nb_override=32, chunk_size=8, rng=SeededRNG('fence'))",
            "s.submit([1, 0, 1, 1])",
            "assert s.release().accepted",
            f"loaded = [m for m in {UNUSED_BY_THE_SESSION_PATH!r} if m in sys.modules]",
            "print(loaded)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
