"""Figure 4 — validating one client's M-dimensional one-hot input.

Σ-OR proofs per coordinate (ours; robust against malicious servers) vs
the PRIO/Poplar linear sketch (lightweight; vulnerable to Figure 1).
Both costs grow with M; the Σ approach pays the public-key premium the
paper quantifies ("approximately an order of magnitude" on their stack).
"""

import time

import pytest

from repro.baselines.sketch import OneHotSketch
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.sigma.onehot import prove_one_hot, verify_one_hot
from repro.utils.rng import SeededRNG

DIMENSIONS = [1, 8, 32]


def one_hot(m):
    return [1] + [0] * (m - 1)


def best_of(fn, repeats=3):
    """Fastest of ``repeats`` timed calls of ``fn``, in seconds: the host's
    speed flips within seconds, and a ratio of two minima is far steadier
    than a ratio of two single shots (as ``tests/perf``'s ``best_of``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("m", DIMENSIONS)
def test_sigma_onehot_prove(benchmark, params_128, m):
    rng = SeededRNG(f"f4p{m}")
    cs, os_ = params_128.pedersen.commit_vector(one_hot(m), rng)

    def run():
        return prove_one_hot(params_128.pedersen, cs, os_, Transcript("f4"), rng)

    benchmark(run)


@pytest.mark.parametrize("m", DIMENSIONS)
def test_sigma_onehot_verify(benchmark, params_128, m):
    rng = SeededRNG(f"f4v{m}")
    cs, os_ = params_128.pedersen.commit_vector(one_hot(m), rng)
    proof = prove_one_hot(params_128.pedersen, cs, os_, Transcript("f4"), rng)
    benchmark(lambda: verify_one_hot(params_128.pedersen, cs, proof, Transcript("f4")))


@pytest.mark.parametrize("m", DIMENSIONS)
def test_sigma_onehot_verify_batched(benchmark, params_128, m):
    """The verifier's actual path: one-hot validation via SigmaBatch."""
    from repro.crypto.sigma.batch import batch_verify_one_hot

    rng = SeededRNG(f"f4b{m}")
    cs, os_ = params_128.pedersen.commit_vector(one_hot(m), rng)
    proof = prove_one_hot(params_128.pedersen, cs, os_, Transcript("f4"), rng)
    benchmark(
        lambda: batch_verify_one_hot(
            params_128.pedersen, cs, proof, Transcript("f4"), rng
        )
    )


def _client_validation_timings(params) -> tuple[float, float]:
    """(sequential, batched) best-of seconds for 64 clients' one-hot
    proofs: each verified alone, or all in one multiexp."""
    from repro.crypto.sigma.batch import SigmaBatch

    m, n_clients = 8, 64
    rng = SeededRNG("f4x")
    clients = []
    for i in range(n_clients):
        cs, os_ = params.pedersen.commit_vector(one_hot(m), rng)
        proof = prove_one_hot(params.pedersen, cs, os_, Transcript(f"c{i}"), rng)
        clients.append((cs, proof))

    def verify_each():
        for i, (cs, proof) in enumerate(clients):
            verify_one_hot(params.pedersen, cs, proof, Transcript(f"c{i}"))

    def verify_batched():
        batch = SigmaBatch(params.pedersen, SeededRNG("g"))
        for i, (cs, proof) in enumerate(clients):
            batch.add_one_hot(cs, proof, Transcript(f"c{i}"))
        batch.verify()

    return best_of(verify_each), best_of(verify_batched)


def test_batched_client_validation_wins_at_scale(params_128_pure):
    """Cross-client aggregation, both sides on CPython's ``pow``: ≥ 3×."""
    sequential, batched = _client_validation_timings(params_128_pure)
    assert batched * 3 < sequential, (
        f"batched {batched * 1e3:.1f}ms vs sequential {sequential * 1e3:.1f}ms"
    )


def test_batched_client_validation_leads_on_this_hosts_powers(params_128):
    """Where libgmp computes the powers (a quarter of CPython's cost, paid
    twice per proof sequentially and once per term batched) the batch
    leads by ≈ 1.9×; it must still lead."""
    sequential, batched = _client_validation_timings(params_128)
    assert batched < sequential, (
        f"batched {batched * 1e3:.1f}ms vs sequential {sequential * 1e3:.1f}ms"
    )


@pytest.mark.parametrize("m", DIMENSIONS)
def test_sketch_validate(benchmark, params_128, m):
    sketch = OneHotSketch(m, params_128.q)
    packages = sketch.client_prepare(one_hot(m), SeededRNG(f"f4s{m}"))
    result = benchmark(sketch.validate, packages, b"bench")
    assert result


def test_sigma_costs_more_than_sketch(params_128):
    """The paper's headline Figure 4 comparison, asserted."""
    m = 8
    rng = SeededRNG("cmp")
    cs, os_ = params_128.pedersen.commit_vector(one_hot(m), rng)

    def sigma_round():
        proof = prove_one_hot(params_128.pedersen, cs, os_, Transcript("f4"), rng)
        verify_one_hot(params_128.pedersen, cs, proof, Transcript("f4"))

    sketch = OneHotSketch(m, params_128.q)
    packages = sketch.client_prepare(one_hot(m), rng)
    sigma = best_of(sigma_round)
    lightweight = best_of(lambda: sketch.validate(packages, b"x"))

    assert sigma > lightweight
