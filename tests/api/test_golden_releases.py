"""Pinned release bytes: every query kind × group × seed × mode.

``golden_releases.json`` holds ``sha256(encode_message(release))`` plus
the acceptance and audit verdicts of one seeded ``Session`` run per case.
The file was generated at the last commit that still shipped the
``run_*()`` wrapper classes — where a cross-surface suite asserted
wrapper ≡ ``Session`` release-for-release — so a matching digest here
carries that guarantee forward across commits: a moved RNG draw, a
reordered message or a changed wire encoding anywhere under ``Session``
fails the pin.

Regenerate (only when a release-byte change is intended and explained):
``PYTHONPATH=src python tests/api/test_golden_releases.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import BoundedSumQuery, CountQuery, HistogramQuery, Session
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.serialization import encode_message
from repro.crypto.sodium import SodiumRistrettoGroup
from repro.utils.rng import SeededRNG

GOLDEN_PATH = Path(__file__).with_name("golden_releases.json")
NB = 8
CHUNK = 3

# kind -> (query, num_provers, client values)
KINDS = {
    "count-k1": (CountQuery(1.0, 2**-10), 1, [1, 0, 1, 1, 0, 1, 0]),
    "count-k2": (CountQuery(1.0, 2**-10), 2, [1, 0, 1, 1, 0, 1, 0]),
    "histogram3-k2": (HistogramQuery(3, 1.0, 2**-10), 2, [0, 2, 1, 0, 0, 2, 1]),
    "sum4-k1": (BoundedSumQuery(4, 1.0, 2**-10), 1, [3, 7, 12, 0, 15, 9, 1]),
}
GROUPS = ("p64-sim", "p128-sim", "ristretto255")
SEEDS = ("golden-0", "golden-1")
MODES = {"buffered": None, "streamed": CHUNK}

CASES = [
    f"{kind}/{group}/{seed}/{mode}"
    for kind in KINDS
    for group in GROUPS
    for seed in SEEDS
    for mode in MODES
]


def observe(case: str, group=None) -> dict:
    """Run ``case``; ``group`` pins a ``Group`` object in place of the name."""
    kind, group_name, seed, mode = case.split("/")
    query, num_provers, values = KINDS[kind]
    session = Session(
        query,
        num_provers=num_provers,
        group=group_name if group is None else group,
        nb_override=NB,
        chunk_size=MODES[mode],
        rng=SeededRNG(seed),
    )
    session.submit(values)
    release = session.release().release
    return {
        "sha256": hashlib.sha256(encode_message(release)).hexdigest(),
        "accepted": release.accepted,
        "clients": {cid: s.value for cid, s in release.audit.clients.items()},
        "provers": {pid: s.value for pid, s in release.audit.provers.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_case_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_release_matches_golden(golden, case):
    observed = observe(case)
    pinned = golden[case]
    assert observed["accepted"] is pinned["accepted"] is True
    assert observed["clients"] == pinned["clients"]
    assert observed["provers"] == pinned["provers"]
    assert observed["sha256"] == pinned["sha256"]


# The name "ristretto255" resolves to one backend per host; the pinned bytes
# are a property of the group, so each implementation is also run by object.
RISTRETTO_BACKENDS = {"pure": RistrettoGroup.instance, "libsodium": SodiumRistrettoGroup.instance}


@pytest.mark.parametrize("backend", RISTRETTO_BACKENDS)
@pytest.mark.parametrize("case", [case for case in CASES if "/ristretto255/" in case])
def test_ristretto_release_matches_golden_on_each_backend(golden, case, backend):
    group = RISTRETTO_BACKENDS[backend]()
    if group is None:
        pytest.skip("libsodium with ristretto255 is not loadable on this host")
    observed = observe(case, group)
    assert observed == golden[case]


if __name__ == "__main__":
    rows = (f" {json.dumps(case)}: {json.dumps(observe(case))}" for case in CASES)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
