"""A client's upload, pinned by digest and by its counted commitment work.

A seeded client's submission — the encoded broadcast plus its K share
messages — is a pure function of the seed, so its bytes are pinned here
for a bit client (M = 1), a one-hot client (M = 4) and a bit-decomposition
:class:`RangeClient`, on two simulation groups and ristretto255.  Every
digest was recorded before the clients stopped recomputing the
commitments they prove over; a change to proving that moves a draw, an
absorbed byte or an encoded field moves a digest.

The count pins the work that change removed: a K = 2, M = 4 one-hot
submit evaluates K·M share commitments and 2M announcements through
:meth:`PedersenParams.commit_many` — and no third pass that recomputes
the M derived commitments the client has just built.

Needs nothing beyond the standard library and pytest.
"""

import hashlib

import pytest

from repro.api.clients import RangeClient
from repro.core.client import Client, encode_choice
from repro.core.params import setup
from repro.crypto.pedersen import PedersenParams
from repro.crypto.serialization import encode_message
from repro.utils.rng import SeededRNG

K = 2

# (client class, dimension, vector)
KINDS = {
    "bit": (Client, 1, [1]),
    "one-hot": (Client, 4, encode_choice(2, 4)),
    "range": (RangeClient, 3, [1, 0, 1]),  # the value 5 in three bits
}

EXPECTED = {
    ("p64-sim", "bit"):
        "92cffc0f4c38ffcbb15587a78aa2eb58f175c78ace76d54280cac9afe944e6b0",
    ("p64-sim", "one-hot"):
        "7707a000f645c32209697aad07ed68648931da5a3fa9addb9d9888d277d1d5fe",
    ("p64-sim", "range"):
        "834ded38a1c0a58f14ee464d079bcab826994bb9ab10c3dfdc99847c940b3e9e",
    ("p128-sim", "bit"):
        "e960945e91df6156c2fb80b0d48af8d8d9ebccf1fa0cc2ca228d40a6597fc4d4",
    ("p128-sim", "one-hot"):
        "e44e92d8e034359ef0e652e0a346a2de446211f863dafe69ff4569e00271c599",
    ("p128-sim", "range"):
        "ca9440047326c1d6f0c97cb02ed25663d345c701be918b81a54d46f7a1a5b0d3",
    ("ristretto255", "bit"):
        "88d333902563071c9ce4de89556d9dd7527444f0822801040f3fe07e680f62ea",
    ("ristretto255", "one-hot"):
        "5219e1e01b2ccc18a912da5db514fc069fb328297ae8eb3d5a5f851cb1998b94",
    ("ristretto255", "range"):
        "beba03779b97601861d992d65cee2b62e1701737ff090797ca6f423b01e6673c",
}


def _params(group: str, dimension: int):
    return setup(1.0, 2**-10, num_provers=K, dimension=dimension, group=group, nb_override=8)


def _upload_digest(group: str, kind: str) -> str:
    cls, dimension, vector = KINDS[kind]
    client = cls(f"client-{kind}", vector, SeededRNG(f"upload-{group}-{kind}"))
    broadcast, privates = client.submit(_params(group, dimension))
    digest = hashlib.sha256(encode_message(broadcast))
    for private in privates:
        digest.update(encode_message(private))
    return digest.hexdigest()


@pytest.mark.parametrize("group, kind", sorted(EXPECTED), ids="-".join)
def test_a_seeded_upload_keeps_its_bytes(group, kind):
    assert _upload_digest(group, kind) == EXPECTED[group, kind]


def test_a_one_hot_submit_commits_shares_and_announcements_only(monkeypatch):
    dimension = 4
    params = _params("p64-sim", dimension)
    evaluated = []
    commit_many = PedersenParams.commit_many

    def counted(self, values, randomness):
        evaluated.append(len(values))
        return commit_many(self, values, randomness)

    monkeypatch.setattr(PedersenParams, "commit_many", counted)
    Client("c", encode_choice(1, dimension), SeededRNG("count")).submit(params)
    # K·M share commitments, then one simulated and one real
    # announcement per coordinate.
    assert sum(evaluated) == K * dimension + 2 * dimension


if __name__ == "__main__":  # print the digests of this checkout
    for group, kind in sorted(EXPECTED):
        print(f'    ("{group}", "{kind}"): "{_upload_digest(group, kind)}",')
