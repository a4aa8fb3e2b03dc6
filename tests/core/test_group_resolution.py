"""Which ristretto255 a name resolves to, decided from the host alone.

``core.params._resolve_group("ristretto255")`` is libsodium's group when
the library loads and passes its self-test, the pure-Python reference
otherwise — once per process, lazily, with nothing to configure.  These
tests re-run that decision under a loader or self-test made to fail and
pin that the fallback is the reference and releases the same bytes, and
that nothing opens the library before a ristretto255 name is resolved.
"""

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
from repro.crypto import sodium
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.serialization import encode_message
from repro.crypto.sodium import SodiumRistrettoGroup
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
    """``import repro`` plus a p64-sim session: the native module is not
    imported and libsodium is not mapped into the process."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.api import CountQuery, Session\n"
        "from repro.utils.rng import SeededRNG\n"
        "s = Session(CountQuery(1.0, 2**-10), group='p64-sim', nb_override=8,"
        " rng=SeededRNG('lazy'))\n"
        "s.submit([1, 0, 1])\n"
        "assert s.release().accepted\n"
        "assert 'repro.crypto.sodium' not in sys.modules, 'native module imported'\n"
        "try:\n"
        "    maps = open('/proc/self/maps').read()\n"
        "except OSError:\n"
        "    maps = ''\n"
        "assert 'libsodium' not in maps, 'libsodium mapped'\n"
        "print('lazy-ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "lazy-ok"
