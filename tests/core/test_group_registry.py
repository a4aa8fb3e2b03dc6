"""Every group name earns its place (DESIGN.md "Which groups stay, and why").

A name ``core.params._resolve_group`` accepts stays only if a benchmark
workload runs it, a CI step serves it (``--group NAME`` in the workflow)
or a result of the paper is computed on it.  ``REASONS`` is that record;
the workload and CI reasons are checked against the files that carry
them, and the accepted names are exactly its keys.  Standard library and
pytest only, so it runs in CI's lint job.
"""

import ast
import struct
from pathlib import Path

import pytest

from repro.core.params import _resolve_group, setup
from repro.errors import EncodingError, ParameterError
from repro.net import wire
from repro.utils.encoding import encode_length_prefixed as lp

ROOT = Path(__file__).resolve().parents[2]

# name -> (kind, where): a workload name in benchmarks/e2e/workloads.py,
# "ci" for a serve leg of .github/workflows/ci.yml, or the source file
# that computes a paper result on the group (a paper anchor).
REASONS = {
    # Section 6's finite-field group and the default of ``setup``.
    "modp-2048": ("paper", "src/repro/core/params.py"),
    # Section 6's curve (curve25519-dalek in the paper).
    "ristretto255": ("workload", "curve-release"),
    "p64-sim": ("workload", "stream-release"),
    "p128-sim": ("workload", "socket-session"),
    # The widest modulus on the Schnorr residue kernels.
    "p256-sim": ("ci", None),
    # Theorem 5.2: small enough for the baby-step/giant-step solver.
    "p32-sim": ("paper", "src/repro/analysis/separation.py"),
}


def _workload_groups() -> dict[str, set[str]]:
    """Workload name -> the groups its ``Spec(name, kind, group, ...)`` rows name."""
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "workloads.py").read_text(encoding="utf-8"))
    groups: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Spec":
            name, _, group = (ast.literal_eval(arg) for arg in node.args[:3])
            groups.setdefault(name, set()).add(group)
    return groups


@pytest.mark.parametrize("name", sorted(REASONS))
def test_each_group_has_its_reason(name):
    kind, where = REASONS[name]
    if kind == "workload":
        assert _workload_groups()[where] == {name}
    elif kind == "ci":
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert f"--group {name} " in workflow
    else:
        assert kind == "paper"
        assert f'"{name}"' in (ROOT / where).read_text(encoding="utf-8")
    assert _resolve_group(name).name == name


@pytest.mark.parametrize("name", ["p256", "ristretto", "modp2048", "P64-sim"])
def test_an_unknown_group_names_every_accepted_one(name):
    with pytest.raises(ParameterError) as caught:
        setup(1.0, 2**-10, group=name, nb_override=4)
    assert str(caught.value) == f"unknown group {name!r}; options: {sorted(REASONS)}"


def test_a_params_frame_naming_an_unknown_group_is_an_encoding_error():
    frame = lp(b"repro.net.params.v1", b"p256", struct.pack(">d", 1.0),
               struct.pack(">d", 2**-10), b"\x1f", b"\x02", b"\x01")
    with pytest.raises(EncodingError, match="unknown group"):
        wire.decode_params(frame)
