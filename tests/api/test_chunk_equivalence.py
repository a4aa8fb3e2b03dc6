"""``chunk_size=None`` is the chunk pipeline with one chunk.

The engine has one implementation of Lines 4–13; ``chunk_size=None``
means "one chunk covering every client and all nb coins".  That is only
a definition if it is unobservable: for any ``c ≥ max(nb, n_clients)``
the release bytes, the audit record (verdicts *and* notes) and the
simulated network's byte count equal those of ``chunk_size=None`` — with
malformed clients planted and with every cheating prover, on every query
kind.  An edit that re-forks the engine on ``chunk_size is None`` breaks
this before it breaks anything else.
"""

import pytest

from repro.api import BoundedSumQuery, CountQuery, HistogramQuery
from repro.api.clients import RangeClient
from repro.api.session import build_engine
from repro.core.client import InconsistentShareClient, NonBinaryClient, NotOneHotClient
from repro.core.prover import (
    BiasedCoinProver,
    InputDroppingProver,
    InputInjectingProver,
    NonBitCoinProver,
    OutputTamperingProver,
    Prover,
    SkipAdjustmentProver,
)
from repro.crypto.serialization import encode_message
from repro.net.serve import run_distributed_session
from repro.utils.rng import SeededRNG

NB = 8

# kind -> (query, honest client values)
KINDS = {
    "count": (CountQuery(1.0, 2**-10), [1, 0, 1, 1, 0, 1, 0]),
    "histogram": (HistogramQuery(3, 1.0, 2**-10), [0, 2, 1, 0, 0, 2, 1]),
    "bounded-sum": (BoundedSumQuery(4, 1.0, 2**-10), [3, 7, 12, 0, 15, 9, 1]),
}
CHEATERS = {
    "honest": Prover,
    "biased-coins": BiasedCoinProver,
    "non-bit-coin": NonBitCoinProver,
    "skip-adjustment": SkipAdjustmentProver,
    "output-tampering": OutputTamperingProver,
    "input-dropping": lambda *a, **kw: InputDroppingProver(*a, victim="client-0", **kw),
    "input-injecting": InputInjectingProver,
}


class InconsistentRangeClient(InconsistentShareClient, RangeClient):
    """A tampered private share under a valid bit-vector proof."""


def observe(kind, num_provers, group, cheater, chunk_size):
    query, values = KINDS[kind]
    seed = f"equiv/{kind}/{num_provers}/{group}/{cheater}"
    params = query.build_params(num_provers=num_provers, group=group, nb_override=NB)
    provers = [
        (CHEATERS[cheater] if k == 0 else Prover)(
            f"prover-{k}", params, SeededRNG(f"{seed}/prover-{k}"), plan=query.build_plan()
        )
        for k in range(num_provers)
    ]
    engine = build_engine(
        query,
        num_provers=num_provers,
        params=params,
        provers=provers,
        chunk_size=chunk_size,
        rng=SeededRNG(seed),
    )
    width = params.dimension
    clients = [
        query.make_client(f"client-{i}", value, SeededRNG(f"{seed}/client-{i}"))
        for i, value in enumerate(values)
    ]
    # The three malformed kinds, planted mid-population.
    clients[2:2] = [NonBinaryClient("evil-value", [3] + [0] * (width - 1), SeededRNG("e0"))]
    clients[5:5] = [NotOneHotClient("evil-shape", [1] * width, SeededRNG("e1"))]
    tamperer = InconsistentRangeClient if kind == "bounded-sum" else InconsistentShareClient
    clients.append(
        tamperer(
            "evil-opening", query.encode(values[0]),
            victim_prover=num_provers - 1, rng=SeededRNG("e2"),
        )
    )
    engine.submit_clients(clients)
    result = engine.run_release()
    audit = result.release.audit
    return {
        "release": encode_message(result.release),
        "clients": dict(audit.clients),
        "provers": dict(audit.provers),
        "notes": list(audit.notes),
        "network_bytes": result.network.total_bytes(),
    }, len(clients)


@pytest.mark.parametrize("cheater", CHEATERS)
@pytest.mark.parametrize("group", ["p64-sim", "p128-sim"])
@pytest.mark.parametrize("num_provers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_none_equals_any_chunk_that_covers_the_run(kind, num_provers, group, cheater):
    unchunked, n_clients = observe(kind, num_provers, group, cheater, None)
    assert {s.value for s in unchunked["clients"].values()} == {
        "valid", "invalid-proof", "bad-opening"
    }
    caught = unchunked["provers"]["prover-0"].value != "honest"
    assert caught == (cheater not in ("honest", "biased-coins"))
    cover = max(NB, n_clients)
    for chunk_size in (cover, cover + 7):
        chunked, _ = observe(kind, num_provers, group, cheater, chunk_size)
        assert chunked == unchunked, f"chunk_size={chunk_size}"


def test_none_equals_a_covering_chunk_distributed():
    query, values = KINDS["histogram"]
    outcomes = [
        run_distributed_session(
            query, values, transport="memory", num_servers=2, group="p64-sim",
            nb_override=NB, chunk_size=chunk_size, seed="equiv-net",
        )
        for chunk_size in (None, max(NB, len(values)), max(NB, len(values)) + 7)
    ]
    assert all(outcome["accepted"] and outcome["byte_identical"] for outcome in outcomes)
    releases = {encode_message(outcome["release"]) for outcome in outcomes}
    assert len(releases) == 1
