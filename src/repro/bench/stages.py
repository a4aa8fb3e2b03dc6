"""Timed building blocks for the Table 1 / Figure 3 / Figure 4 benches.

These time exactly the operations the paper's stage columns describe:

* Σ-proof      — creating nb non-interactive OR proofs for private coins,
* Σ-verification — verifying them,
* Morra        — nb commit-reveal public coins between prover and verifier,
* Aggregation  — summing n field elements of κ bits,
* Check        — the verifier's Line 12 commitment updates + Line 13 product.

Each function returns (seconds, per_item_seconds) so the harness can
extrapolate scaled runs to the paper's workload sizes (the work is
perfectly linear in nb / n — there is no cross-item interaction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.params import PublicParams
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening
from repro.crypto.sigma.or_bit import BitProof, prove_bits, verify_bits
from repro.crypto.sigma.onehot import prove_one_hot, verify_one_hot
from repro.mpc.morra import MorraParticipant, run_morra_batch
from repro.utils.rng import RNG, SeededRNG

__all__ = [
    "StageSample",
    "time_sigma_prove",
    "time_sigma_verify",
    "time_morra",
    "time_aggregation",
    "time_check",
    "time_onehot_prove",
    "time_onehot_verify",
    "time_sketch_validate",
]


@dataclass(frozen=True)
class StageSample:
    """A timed stage: total seconds and units processed."""

    seconds: float
    items: int

    @property
    def per_item(self) -> float:
        return self.seconds / max(self.items, 1)

    def extrapolate_ms(self, target_items: int) -> float:
        return self.per_item * target_items * 1e3


def _coins(params: PublicParams, count: int, rng: RNG) -> tuple[list[Commitment], list[Opening]]:
    commitments, openings = [], []
    for _ in range(count):
        c, o = params.pedersen.commit_fresh(rng.coin(), rng)
        commitments.append(c)
        openings.append(o)
    return commitments, openings


def time_sigma_prove(params: PublicParams, count: int, rng: RNG) -> tuple[StageSample, list[Commitment], list[BitProof]]:
    commitments, openings = _coins(params, count, rng)
    transcript = Transcript("bench.sigma")
    start = time.perf_counter()
    proofs = prove_bits(params.pedersen, commitments, openings, transcript, rng, recommit=False)
    elapsed = time.perf_counter() - start
    return StageSample(elapsed, count), commitments, proofs


def time_sigma_verify(
    params: PublicParams, commitments: list[Commitment], proofs: list[BitProof]
) -> StageSample:
    transcript = Transcript("bench.sigma")
    start = time.perf_counter()
    verify_bits(params.pedersen, commitments, proofs, transcript)
    return StageSample(time.perf_counter() - start, len(proofs))


def time_morra(params: PublicParams, count: int, rng: RNG) -> tuple[StageSample, list[int]]:
    prover = MorraParticipant("bench-prover", rng)
    verifier = MorraParticipant("bench-verifier", SeededRNG("bench-vfr"))
    start = time.perf_counter()
    bits = run_morra_batch([prover, verifier], params.q, count).bits()
    return StageSample(time.perf_counter() - start, count), bits


def time_aggregation(params: PublicParams, n: int, rng: RNG) -> StageSample:
    """Summing n shares of κ bits each (the prover's Line 10 sum)."""
    q = params.q
    values = [rng.field_element(q) for _ in range(n)]
    start = time.perf_counter()
    acc = 0
    for value in values:
        acc = (acc + value) % q
    return StageSample(time.perf_counter() - start, n)


def time_check(
    params: PublicParams,
    commitments: list[Commitment],
    bits: list[int],
    rng: RNG,
) -> StageSample:
    """Line 12 updates + Line 13 product + one Com(y, z)."""
    pedersen = params.pedersen
    start = time.perf_counter()
    product = pedersen.commitment_to_constant(0)
    for commitment, bit in zip(commitments, bits):
        adjusted = pedersen.one_minus(commitment) if bit else commitment
        product = product * adjusted
    pedersen.commit(rng.field_element(params.q), rng.field_element(params.q))
    return StageSample(time.perf_counter() - start, len(commitments))


# Figure 4 building blocks ----------------------------------------------------


def time_onehot_prove(params: PublicParams, dimension: int, rng: RNG) -> tuple[StageSample, list[Commitment], object]:
    vector = [1 if m == 0 else 0 for m in range(dimension)]
    commitments, openings = params.pedersen.commit_vector(vector, rng)
    transcript = Transcript("bench.onehot")
    start = time.perf_counter()
    proof = prove_one_hot(params.pedersen, commitments, openings, transcript, rng)
    return StageSample(time.perf_counter() - start, dimension), commitments, proof


def time_onehot_verify(params: PublicParams, commitments: list[Commitment], proof) -> StageSample:
    transcript = Transcript("bench.onehot")
    start = time.perf_counter()
    verify_one_hot(params.pedersen, commitments, proof, transcript)
    return StageSample(time.perf_counter() - start, len(commitments))


def time_sketch_validate(dimension: int, q: int, rng: RNG) -> StageSample:
    """The PRIO/Poplar-style sketch validation of one client (Figure 4)."""
    from repro.baselines.sketch import OneHotSketch

    sketch = OneHotSketch(dimension, q)
    vector = [1 if m == 0 else 0 for m in range(dimension)]
    packages = sketch.client_prepare(vector, rng)
    start = time.perf_counter()
    assert sketch.validate(packages, b"bench-seed")
    return StageSample(time.perf_counter() - start, dimension)
