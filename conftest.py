"""Repo-root pytest hooks, shared by ``tests/`` and ``benchmarks/``.

Makes ``src/`` importable without installation.  The canonical setup is
``pip install -e .``; this fallback keeps ``pytest tests/`` and ``pytest
benchmarks/`` working in environments that cannot build editable
installs (e.g. offline containers missing the ``wheel`` package — see
README's install note).
"""

import sys
from functools import lru_cache
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture()
def refused_powers(monkeypatch) -> None:
    """Refuse libgmp's powers for this test, as on a host without the
    library: a Schnorr group built in it (``SchnorrGroup.named.__wrapped__``)
    computes every variable-base power with CPython's ``pow``."""
    from repro.crypto import gmp

    monkeypatch.setattr(gmp, "_native_powers", lru_cache(maxsize=1)(lambda: None))
