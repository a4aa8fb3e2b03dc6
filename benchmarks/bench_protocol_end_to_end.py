"""End-to-end ΠBin runs — the full protocol at small scale.

Covers the workloads of the paper's two deployment models (curator and
2-server MPC) plus the non-verifiable baseline, making the cost of
verifiability directly visible (the paper's core overhead story).  Runs
go through the Query/Session API in both buffered and streamed modes.
"""

from repro.api import CountQuery, Session
from repro.baselines.trusted_curator import NonVerifiableCurator
from repro.utils.rng import SeededRNG

BITS = [1, 0, 1, 1, 0, 0, 1, 1]
NB = 12


def run_protocol(k, seed, chunk_size=None):
    session = Session(
        CountQuery(epsilon=1.0, delta=2**-10),
        num_provers=k,
        group="p128-sim",
        nb_override=NB,
        chunk_size=chunk_size,
        rng=SeededRNG(seed),
    )
    session.submit(BITS)
    return session.release()


def test_curator_end_to_end(benchmark):
    result = benchmark.pedantic(run_protocol, args=(1, "e2e-1"), rounds=3, iterations=1)
    assert result.accepted


def test_mpc_two_servers_end_to_end(benchmark):
    result = benchmark.pedantic(run_protocol, args=(2, "e2e-2"), rounds=3, iterations=1)
    assert result.accepted


def test_streamed_curator_end_to_end(benchmark):
    result = benchmark.pedantic(
        run_protocol, args=(1, "e2e-3", 4), rounds=3, iterations=1
    )
    assert result.accepted


def test_non_verifiable_baseline(benchmark):
    curator = NonVerifiableCurator.binomial(1.0, 2**-10)
    out = benchmark(curator.release_count, BITS, SeededRNG("nv"))
    assert out.value == sum(BITS) + out.noise


def test_verifiability_overhead_is_in_sigma_stages():
    """Where does the verifiable/non-verifiable gap come from?  Table 1's
    answer: the Σ stages.  Assert they dominate the end-to-end run."""
    result = run_protocol(1, "ovh")
    stages = result.results[0].timer.stages
    sigma = stages["sigma-proof"] + stages["sigma-verification"]
    rest = stages["morra"] + stages["aggregation"] + stages["check"]
    assert sigma > rest
