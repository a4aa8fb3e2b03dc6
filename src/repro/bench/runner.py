"""Experiment drivers, one per paper artifact (see DESIGN.md's index).

Every driver returns its rows and writes no file.  Workloads run at
reduced sizes by default (this is pure Python) and report both measured
numbers and the linear extrapolation to the paper's stated sizes; set
``REPRO_PAPER_SCALE=1`` — the one workload-size setting — to run the
real thing.
"""

from __future__ import annotations

import os
import time

from repro.analysis.error import empirical_error
from repro.attacks import (
    collusion_attack_on_pibin,
    collusion_attack_on_prio,
    exclusion_attack_on_pibin,
    exclusion_attack_on_prio,
    noise_biasing_on_curator,
    noise_biasing_on_pibin,
)
from repro.analysis.separation import demonstrate_separation
from repro.bench.stages import (
    time_aggregation,
    time_check,
    time_morra,
    time_onehot_prove,
    time_onehot_verify,
    time_sigma_prove,
    time_sigma_verify,
    time_sketch_validate,
)
from repro.core.params import _resolve_group, setup
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.schnorr_group import SchnorrGroup
from repro.dp.binomial import BinomialMechanism, coins_for_privacy
from repro.dp.laplace import LaplaceMechanism
from repro.dp.randomized_response import RandomizedResponse
from repro.utils.rng import SeededRNG

__all__ = [
    "run_table1",
    "run_fig3",
    "run_fig4",
    "run_table2",
    "run_micro",
    "run_err",
    "run_comm",
    "run_attacks",
    "run_separation",
    "run_multiexp",
    "run_streaming",
    "EXPERIMENTS",
]

# Paper workload constants (Table 1 caption).
PAPER_N = 10**6
PAPER_NB = 262_144
PAPER_DELTA = 2**-10


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "0") == "1"


def run_table1(
    *,
    group: str = "modp-2048",
    nb: int | None = None,
    n: int | None = None,
    seed: str = "table1",
) -> list[dict]:
    """Table 1: per-stage latency of ΠBin (single counting query).

    Stages defined exactly as in the paper: Σ-proof / Σ-verification over
    the nb private-coin commitments, Morra for nb public coins,
    aggregation of n field elements, and the verifier's check.
    """
    if nb is None:
        nb = PAPER_NB if paper_scale() else 256
    if n is None:
        n = PAPER_N if paper_scale() else 20_000
    params = setup(1.0, PAPER_DELTA, group=group, nb_override=nb)
    rng = SeededRNG(seed)

    prove, commitments, proofs = time_sigma_prove(params, nb, rng)
    verify = time_sigma_verify(params, commitments, proofs)
    morra, bits = time_morra(params, nb, rng)
    aggregation = time_aggregation(params, n, rng)
    check = time_check(params, commitments, bits, rng)

    paper_row = {
        "stage": "paper (M1, Rust)",
        "sigma_proof_ms": 6609.0,
        "sigma_verify_ms": 6708.0,
        "morra_ms": 4987.0,
        "aggregation_ms": 198.0,
        "check_ms": 263.0,
    }
    measured_row = {
        "stage": f"measured (nb={nb}, n={n}, {group})",
        "sigma_proof_ms": prove.seconds * 1e3,
        "sigma_verify_ms": verify.seconds * 1e3,
        "morra_ms": morra.seconds * 1e3,
        "aggregation_ms": aggregation.seconds * 1e3,
        "check_ms": check.seconds * 1e3,
    }
    extrapolated_row = {
        "stage": f"extrapolated (nb={PAPER_NB}, n={PAPER_N})",
        "sigma_proof_ms": prove.extrapolate_ms(PAPER_NB),
        "sigma_verify_ms": verify.extrapolate_ms(PAPER_NB),
        "morra_ms": morra.extrapolate_ms(PAPER_NB),
        "aggregation_ms": aggregation.extrapolate_ms(PAPER_N),
        "check_ms": check.extrapolate_ms(PAPER_NB),
    }
    return [paper_row, measured_row, extrapolated_row]


def run_fig3(
    *,
    epsilons: tuple[float, ...] = (0.5, 0.88, 1.25, 2.0, 3.0, 4.0),
    backends: tuple[str, ...] = ("modp-2048", "ristretto255"),
    sample: int | None = None,
    seed: str = "fig3",
) -> list[dict]:
    """Figure 3: Σ-proof create/verify latency vs ε, per group backend.

    nb(ε) comes from Lemma 2.1 (∝ 1/ε²); we time ``sample`` proofs and
    report the projected total for the full nb(ε), which is exact because
    proofs are independent.
    """
    if sample is None:
        sample = 2048 if paper_scale() else 48
    rows = []
    for backend in backends:
        params = setup(1.0, PAPER_DELTA, group=backend, nb_override=max(sample, 31))
        rng = SeededRNG(f"{seed}-{backend}")
        prove, commitments, proofs = time_sigma_prove(params, sample, rng)
        verify = time_sigma_verify(params, commitments, proofs)
        for eps in epsilons:
            nb = coins_for_privacy(eps, PAPER_DELTA)
            rows.append(
                {
                    "backend": backend,
                    "epsilon": eps,
                    "nb": nb,
                    "prove_total_s": prove.per_item * nb,
                    "verify_total_s": verify.per_item * nb,
                    "prove_per_coin_ms": prove.per_item * 1e3,
                    "verify_per_coin_ms": verify.per_item * 1e3,
                }
            )
    return rows


def run_fig4(
    *,
    dimensions: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    group: str = "modp-2048",
    seed: str = "fig4",
) -> list[dict]:
    """Figure 4: validating one client's M-dimensional input.

    Σ-OR one-hot proofs (ours, malicious-server robust) vs the
    PRIO/Poplar linear sketch (fast, but vulnerable to Figure 1).
    """
    rows = []
    sketch_q = SchnorrGroup.named(group).order
    for dimension in dimensions:
        params = setup(
            1.0, PAPER_DELTA, group=group, dimension=dimension, nb_override=31
        )
        rng = SeededRNG(f"{seed}-{dimension}")
        prove, commitments, proof = time_onehot_prove(params, dimension, rng)
        verify = time_onehot_verify(params, commitments, proof)
        sketch = time_sketch_validate(dimension, sketch_q, rng)
        sigma_total = prove.seconds + verify.seconds
        rows.append(
            {
                "M": dimension,
                "sigma_prove_ms": prove.seconds * 1e3,
                "sigma_verify_ms": verify.seconds * 1e3,
                "sketch_ms": sketch.seconds * 1e3,
                "overhead_x": sigma_total / max(sketch.seconds, 1e-9),
            }
        )
    return rows


def run_table2(*, validate: bool = True, seed: str = "table2") -> list[dict]:
    """Table 2: qualitative properties of MPC-DP systems.

    Static rows transcribe the paper's table; the two systems implemented
    in this repository (PRIO and ours) carry a ``validated`` flag derived
    by actually running the attack probes.
    """
    rows = [
        {"protocol": "Cryptographic RR [AJL04]", "active": True, "central_dp": False, "auditable": False, "zero_leakage": True, "validated": ""},
        {"protocol": "Verifiable Randomization [KCY21]", "active": True, "central_dp": False, "auditable": True, "zero_leakage": True, "validated": ""},
        {"protocol": "Biased Coins [CSU19]", "active": True, "central_dp": True, "auditable": False, "zero_leakage": False, "validated": ""},
        {"protocol": "MPC-DP heavy hitters [BK21]", "active": False, "central_dp": True, "auditable": False, "zero_leakage": True, "validated": ""},
        {"protocol": "PRIO [CGB17]", "active": False, "central_dp": True, "auditable": False, "zero_leakage": True, "validated": ""},
        {"protocol": "Brave STAR [DSQ+21]", "active": False, "central_dp": False, "auditable": False, "zero_leakage": False, "validated": ""},
        {"protocol": "Sparse Histograms [BBG+20]", "active": False, "central_dp": True, "auditable": False, "zero_leakage": False, "validated": ""},
        {"protocol": "Crypt-eps [RCWH+20]", "active": False, "central_dp": True, "auditable": False, "zero_leakage": False, "validated": ""},
        {"protocol": "Poplar [BBCG+22]", "active": True, "central_dp": False, "auditable": False, "zero_leakage": False, "validated": ""},
        {"protocol": "Our work (PiBin)", "active": True, "central_dp": True, "auditable": True, "zero_leakage": True, "validated": ""},
    ]
    if validate:
        # Dynamically confirm the rows we implement.
        prio_attack = exclusion_attack_on_prio(rng=SeededRNG(f"{seed}-prio"))
        ours_attack = exclusion_attack_on_pibin(rng=SeededRNG(f"{seed}-ours"))
        ours_bias = noise_biasing_on_pibin(rng=SeededRNG(f"{seed}-bias"))
        for row in rows:
            if row["protocol"].startswith("PRIO"):
                row["validated"] = (
                    "attack succeeded silently" if prio_attack.succeeded and not prio_attack.detected else "UNEXPECTED"
                )
            if row["protocol"].startswith("Our work"):
                ok = ours_attack.detected and ours_bias.detected
                row["validated"] = "cheaters detected+named" if ok else "UNEXPECTED"
    return rows


def run_micro(*, exponent_bits: int = 256, trials: int | None = None, seed: str = "micro") -> list[dict]:
    """Section 6 inline numbers: single-exponentiation latency per backend.

    Paper (Apple M1, native code): 35 µs for Gq ⊂ Z*p, 328 µs for
    Ristretto — EC slower by ~9×.  Among this repository's *pure-Python*
    backends the ordering inverts: a 255-bit Edwards scalar multiplication
    in Python beats CPython's 2048-bit modular exponentiation, because the
    paper's comparison pits a tiny field (with vectorized native code)
    against a 2048-bit one (with the same); strip the native advantage and
    the bignum width dominates.  Where the name ``"ristretto255"`` resolves
    to libsodium that backend gets its own row; ``note`` marks the row a
    ``group="ristretto255"`` session on this host actually runs, and the
    ratio row is taken against it.  Reported honestly.
    """
    if trials is None:
        trials = 200 if paper_scale() else 50
    rng = SeededRNG(seed)
    reference = RistrettoGroup.instance()
    active = _resolve_group("ristretto255")
    backends = [
        ("modp-2048", SchnorrGroup.named("modp-2048")),
        ("ristretto255 (pure Python)", reference),
    ]
    if active is not reference:
        backends.append((f"ristretto255 ({type(active).__name__})", active))
    rows = []
    for name, group in backends:
        base = group.generator() ** 3  # not the generator: variable-base cost
        exponents = [rng.randbits(exponent_bits) for _ in range(trials)]
        start = time.perf_counter()
        for e in exponents:
            base ** e
        per_op = (time.perf_counter() - start) / trials
        rows.append(
            {
                "backend": name,
                "measured_us": per_op * 1e6,
                "paper_us": 35.0 if name == "modp-2048" else 328.0,
                "note": '"ristretto255" resolves here' if group is active else "",
            }
        )
    rows.append(
        {
            "backend": "ratio ec/modp",
            "measured_us": rows[-1]["measured_us"] / rows[0]["measured_us"],
            "paper_us": 328.0 / 35.0,
            "note": "",
        }
    )
    return rows


def run_err(
    *,
    epsilons: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0),
    ns: tuple[int, ...] = (100, 1_000, 10_000),
    trials: int | None = None,
    seed: str = "err",
) -> list[dict]:
    """Central vs local DP-Error (Definition 6): O(1/ε) vs O(√n/ε)."""
    if trials is None:
        trials = 200 if paper_scale() else 60
    rng = SeededRNG(seed)
    rows = []
    for n in ns:
        dataset = [1 if i % 3 == 0 else 0 for i in range(n)]
        for eps in epsilons:
            mechanisms = {
                "binomial (central)": BinomialMechanism(eps, PAPER_DELTA),
                "laplace (central)": LaplaceMechanism(eps),
                "randomized response (local)": RandomizedResponse(eps),
            }
            for name, mechanism in mechanisms.items():
                rows.append(
                    {
                        "mechanism": name,
                        "n": n,
                        "epsilon": eps,
                        "err": empirical_error(mechanism, dataset, trials, rng),
                    }
                )
    return rows


def run_comm(
    *,
    group: str = "modp-2048",
    dimensions: tuple[int, ...] = (1, 8, 64),
    seed: str = "comm",
) -> list[dict]:
    """Communication cost: serialized proof sizes vs the sketch.

    The paper notes the Σ approach "increases the communication bandwidth
    of the protocol"; this quantifies it: bytes per client validation
    (Σ-OR one-hot proof + commitments vs the sketch's shares +
    correlation), and bytes per noise coin (commitment + proof).

    The trailing rows report a full K = 2 session's per-role traffic from
    the message bus, whose accounting is now *exact* encoded wire bytes
    for every protocol message (see :func:`repro.crypto.serialization.wire_size`)
    rather than a best-effort estimate.
    """
    from repro.crypto.fiat_shamir import Transcript
    from repro.crypto.serialization import (
        encode_bit_proof,
        encode_commitment,
        encode_one_hot_proof,
    )
    from repro.crypto.sigma.onehot import prove_one_hot
    from repro.crypto.sigma.or_bit import prove_bit
    from repro.baselines.sketch import OneHotSketch

    rows = []
    params = setup(1.0, PAPER_DELTA, group=group, nb_override=31)
    rng = SeededRNG(seed)
    scalar_bytes = params.group.scalar_bytes

    # Per-coin cost (prover side of ΠBin).
    c, o = params.pedersen.commit_fresh(1, rng)
    proof = prove_bit(params.pedersen, c, o, Transcript("comm"), rng)
    rows.append(
        {
            "item": "noise coin (commitment + sigma-OR proof)",
            "M": 1,
            "bytes": len(encode_commitment(c)) + len(encode_bit_proof(proof)),
        }
    )

    for m in dimensions:
        vector = [1] + [0] * (m - 1)
        cs, os_ = params.pedersen.commit_vector(vector, rng)
        oh = (
            prove_one_hot(params.pedersen, cs, os_, Transcript("comm"), rng)
            if m > 1
            else None
        )
        sigma_bytes = sum(len(encode_commitment(x)) for x in cs)
        if oh is not None:
            sigma_bytes += len(encode_one_hot_proof(oh))
        else:
            bp = prove_bit(params.pedersen, cs[0], os_[0], Transcript("c2"), rng)
            sigma_bytes += len(encode_bit_proof(bp))
        rows.append(
            {"item": "client validation, sigma-OR", "M": m, "bytes": sigma_bytes}
        )

        sketch = OneHotSketch(m, params.q)
        packages = sketch.client_prepare(vector, rng)
        sketch_bytes = sum(
            (len(p.x_share) + 2) * scalar_bytes for p in packages
        )
        rows.append(
            {"item": "client validation, sketch (2 servers)", "M": m, "bytes": sketch_bytes}
        )

    # End-to-end session traffic, exact wire bytes per role (K = 2).
    from repro.api import CountQuery, Session

    session = Session(
        CountQuery(1.0, PAPER_DELTA),
        num_provers=2,
        group=group,
        nb_override=31,
        rng=SeededRNG(f"{seed}-session"),
    )
    session.submit([1, 0, 1, 1])
    result = session.release()
    network = result.results[0].engine_result.network
    by_role = {"clients": 0, "provers": 0, "verifier": 0}
    for sender, sent in sorted(network.bytes_sent.items()):
        if sender.startswith("client"):
            by_role["clients"] += sent
        elif sender.startswith("prover"):
            by_role["provers"] += sent
        else:
            by_role["verifier"] += sent
    for role, sent in by_role.items():
        rows.append(
            {"item": f"session wire bytes (n=4, nb=31, K=2), {role}", "M": 1, "bytes": sent}
        )
    return rows


def run_attacks(*, seed: str = "attacks") -> list[dict]:
    """Figure 1 + noise biasing, side by side (baseline vs ΠBin)."""
    outcomes = [
        exclusion_attack_on_prio(rng=SeededRNG(f"{seed}-1")),
        exclusion_attack_on_pibin(rng=SeededRNG(f"{seed}-2")),
        collusion_attack_on_prio(rng=SeededRNG(f"{seed}-3")),
        collusion_attack_on_pibin(rng=SeededRNG(f"{seed}-4")),
        noise_biasing_on_curator(rng=SeededRNG(f"{seed}-5")),
        noise_biasing_on_pibin(rng=SeededRNG(f"{seed}-6")),
    ]
    return [
        {
            "attack": o.attack,
            "system": o.system,
            "adversary_wins": o.succeeded,
            "detected": o.detected,
            "culprit": o.culprit or "-",
        }
        for o in outcomes
    ]


def run_separation(*, seed: str = "separation") -> list[dict]:
    """Theorem 5.2 demonstration on the toy group."""
    report = demonstrate_separation(rng=SeededRNG(seed))
    return [
        {
            "horn": "Pedersen (stat. hiding)",
            "unbounded_break": "soundness: equivocated tally accepted",
            "succeeded": report.pedersen_equivocation_succeeded,
        },
        {
            "horn": "ElGamal (perf. binding)",
            "unbounded_break": "privacy: committed value extracted",
            "succeeded": report.elgamal_extraction_succeeded,
        },
    ]


def run_multiexp(
    *,
    sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096, 16384),
    wide_sizes: tuple[int, ...] = (2, 8, 32),
    signed_sizes: tuple[int, ...] = (1024, 4096),
    seed: str = "multiexp",
) -> list[dict]:
    """Multiexp tier crossover: naive vs libgmp vs Straus-wNAF vs Pippenger.

    Times the tiers per batch size on the 64-, 128- and 256-bit Schnorr
    simulation groups (plus a few sizes on production modp-2048) and
    reports the automatic selection beside them — the check on the cost
    model's constants.  ``naive_ms`` is a CPython ``pow`` per term, the
    naive tier without libgmp; ``native_ms`` is the naive tier on libgmp
    (:func:`repro.crypto.gmp.power_product`, timed at every width, so the
    rows show where it pays: ``schnorr_group._NATIVE_POWER_MIN_BITS``) or
    None where libgmp is refused.  Rows carry the exponent width; extra
    row kinds: ``straus-window`` sweeps the wNAF width,
    ``pippenger-variants`` compares signed-digit vs unsigned buckets —
    signed wins where negation is free, i.e. on the curve backends, while
    unsigned holds on the integer backends where negation is a batched
    modular inversion worth ~3 multiplications per base.
    """
    from repro.crypto.gmp import power_product
    from repro.crypto.multiexp import (
        _straus,
        multi_exponentiation,
        select_algorithm,
    )

    rows: list[dict] = []
    for group_name, group_sizes, budget in (
        ("p64-sim", sizes, 256),
        ("p128-sim", sizes, 256),
        ("p256-sim", sizes, 64),
        ("modp-2048", wide_sizes, 2),
    ):
        group = SchnorrGroup.named(group_name)
        kernel = group.multiexp_kernel()
        p = group.modulus
        native = power_product(p)
        rng = SeededRNG(f"{seed}-{group_name}")
        for n in group_sizes:
            bases = [group.random_element(rng) for _ in range(n)]
            exps = [rng.field_element(group.order) for _ in range(n)]
            raws = [base.value for base in bases]
            bits = max((e.bit_length() for e in exps), default=1)
            row: dict = {
                "group": group_name,
                "n": n,
                "bits": bits,
                "selected": select_algorithm(
                    n,
                    bits,
                    native_pow=kernel.native_pow,
                    op_overhead=kernel.op_overhead,
                    neg_muls=kernel.neg_muls,
                    pow_muls=kernel.pow_muls,
                    signed_buckets=kernel.signed_buckets,
                ),
            }

            def pure_naive() -> int:
                acc = 1
                for raw, e in zip(raws, exps):
                    acc = acc * pow(raw, e, p) % p
                return acc

            runs = {
                "naive": pure_naive,
                "native": None if native is None else lambda: native(raws, exps),
            }
            for algorithm in ("straus", "pippenger"):
                runs[algorithm] = lambda algorithm=algorithm: multi_exponentiation(
                    group, bases, exps, algorithm=algorithm
                )
            reps = max(1, budget // n)
            for algorithm, run in runs.items():
                if run is None:
                    row[f"{algorithm}_ms"] = None
                    continue
                start = time.perf_counter()
                for _ in range(reps):
                    run()
                row[f"{algorithm}_ms"] = (time.perf_counter() - start) / reps * 1e3
            fastest = min(
                row[f"{tier}_ms"]
                for tier in ("native", "straus", "pippenger")
                if row[f"{tier}_ms"] is not None
            )
            row["speedup_vs_naive"] = row["naive_ms"] / max(fastest, 1e-9)
            rows.append(row)

        # Straus wNAF width sweep: the evidence for _STRAUS_WINDOWS.
        window_n = 16
        bases = [group.random_element(rng) for _ in range(window_n)]
        exps = [rng.field_element(group.order) for _ in range(window_n)]
        bits = max(e.bit_length() for e in exps)
        raw_bases = [kernel.to_raw(base) for base in bases]
        for window in (3, 4, 5, 6):
            reps = max(1, budget // window_n)
            start = time.perf_counter()
            for _ in range(reps):
                _straus(kernel, raw_bases, exps, window)
            rows.append(
                {
                    "group": group_name,
                    "kind": "straus-window",
                    "n": window_n,
                    "bits": bits,
                    "window": window,
                    "ms": (time.perf_counter() - start) / reps * 1e3,
                }
            )

    # Signed-digit vs unsigned Pippenger buckets, per backend class.
    for group, group_sizes, reps in (
        (SchnorrGroup.named("p128-sim"), signed_sizes, 3),
        (RistrettoGroup.instance(), signed_sizes[:1], 1),
    ):
        kernel = group.multiexp_kernel()
        rng = SeededRNG(f"{seed}-signed-{group.name}")
        for n in group_sizes:
            bases = [group.random_element(rng) for _ in range(n)]
            exps = [rng.field_element(group.order) for _ in range(n)]
            bits = max(e.bit_length() for e in exps)
            timings = {}
            for variant in ("pippenger-unsigned", "pippenger-signed"):
                start = time.perf_counter()
                for _ in range(reps):
                    multi_exponentiation(group, bases, exps, algorithm=variant)
                timings[variant] = (time.perf_counter() - start) / reps * 1e3
            rows.append(
                {
                    "group": group.name,
                    "kind": "pippenger-variants",
                    "n": n,
                    "bits": bits,
                    "neg_muls": kernel.neg_muls,
                    "unsigned_ms": timings["pippenger-unsigned"],
                    "signed_ms": timings["pippenger-signed"],
                    "signed_speedup": timings["pippenger-unsigned"]
                    / max(timings["pippenger-signed"], 1e-9),
                }
            )
    return rows


def run_streaming(
    *,
    nb: int | None = None,
    chunk: int | None = None,
    n_clients: int = 48,
    group: str = "p64-sim",
    seed: str = "streaming",
) -> list[dict]:
    """Streamed vs buffered session verification: throughput and memory.

    Runs the same CountQuery twice through ``repro.api.Session`` — once
    as one chunk (``buffered``: all nb proofs and messages held at once)
    and once streamed in chunks of ``chunk`` — and reports proofs
    verified/sec plus the tracemalloc peak, the in-process stand-in for
    peak verifier RSS: the evidence that a paper-scale nb fits in
    O(chunk) memory.  Set ``REPRO_PAPER_SCALE=1`` for the nb = 65,536 run.
    """
    import gc
    import tracemalloc

    from repro.api import CountQuery, Session

    if nb is None:
        nb = 65_536 if paper_scale() else 1024
    if chunk is None:
        chunk = max(64, nb // 64)
    bits = [1 if i % 3 == 0 else 0 for i in range(n_clients)]
    query = CountQuery(1.0, PAPER_DELTA)

    rows: list[dict] = []
    peaks: dict[str, int] = {}
    for mode, chunk_size in (("streamed", chunk), ("buffered", None)):
        gc.collect()
        tracemalloc.start()
        start = time.perf_counter()
        session = Session(
            query,
            group=group,
            nb_override=nb,
            chunk_size=chunk_size,
            rng=SeededRNG(f"{seed}-{mode}"),
        )
        session.submit(bits)
        result = session.release()
        total = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.accepted
        stages = result.results[0].timer.stages
        verify_s = stages.get("sigma-verification", 0.0)
        peaks[mode] = peak
        rows.append(
            {
                "mode": mode,
                "nb": nb,
                "chunk": chunk_size or nb,
                "n_clients": n_clients,
                "group": group,
                "total_s": total,
                "sigma_verify_s": verify_s,
                "proofs_per_s": nb / verify_s if verify_s else float("inf"),
                "peak_mem_mb": peak / 1e6,
            }
        )
    # Summary row: dimensionless ratios under their own keys — never mixed
    # into the seconds/MB columns above.
    rows.append(
        {
            "mode": "ratio (streamed/buffered)",
            "nb": nb,
            "chunk": chunk,
            "n_clients": n_clients,
            "group": group,
            "total_ratio": rows[0]["total_s"] / max(rows[1]["total_s"], 1e-9),
            "peak_mem_ratio": peaks["streamed"] / max(peaks["buffered"], 1),
        }
    )
    return rows


EXPERIMENTS = {
    "table1": run_table1,
    "multiexp": run_multiexp,
    "streaming": run_streaming,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "table2": run_table2,
    "micro": run_micro,
    "err": run_err,
    "comm": run_comm,
    "attacks": run_attacks,
    "separation": run_separation,
}
