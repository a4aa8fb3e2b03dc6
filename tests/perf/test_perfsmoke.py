"""Perf-regression canary: ``pytest -m perfsmoke``.

A reduced version of the batched-verification benchmark that runs in
well under a second, so it can ride along in the tier-1 suite (and be
selected alone with ``-m perfsmoke`` in CI).  The thresholds are
deliberately loose — the canary exists to catch the batch path silently
degenerating to per-proof work (a >5× regression), not to measure.
"""

import os
import sys
import time

import pytest

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import PedersenParams
from repro.crypto.schnorr_group import SchnorrGroup
from repro.crypto.sigma.batch import batch_verify_bits
from repro.crypto.sigma.or_bit import prove_bits, verify_bits
from repro.utils.rng import SeededRNG

pytestmark = pytest.mark.perfsmoke

N = 192


def best_of(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed calls of ``fn``, in seconds.

    Every comparison in this module times both sides through here: the
    host's speed flips 1.0×↔1.5× within seconds, and the minimum is the
    sample least disturbed by it, so a ratio of two minima is far steadier
    than a ratio of two single shots.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def pedersen128():
    return PedersenParams(SchnorrGroup.named("p128-sim"))


@pytest.fixture(scope="module")
def proof_batch(pedersen128):
    rng = SeededRNG("perfsmoke")
    bits = [rng.coin() for _ in range(N)]
    cs, os_ = pedersen128.commit_vector(bits, rng)
    proofs = prove_bits(pedersen128, cs, os_, Transcript("ps"), rng)
    return cs, proofs


def test_batch_beats_sequential(pedersen128, proof_batch):
    cs, proofs = proof_batch
    sequential = best_of(lambda: verify_bits(pedersen128, cs, proofs, Transcript("ps")))
    batched = best_of(
        lambda: batch_verify_bits(pedersen128, cs, proofs, Transcript("ps"), SeededRNG("g"))
    )
    # Expected ~4-7x at n=192; 1.5x is the do-not-regress floor.
    assert batched * 1.5 < sequential, (
        f"batched {batched * 1e3:.1f}ms vs sequential {sequential * 1e3:.1f}ms"
    )


def test_batch_absolute_budget(pedersen128, proof_batch):
    """Batched verification of 192 proofs stays under a generous budget."""
    cs, proofs = proof_batch
    batched = best_of(
        lambda: batch_verify_bits(pedersen128, cs, proofs, Transcript("ps"), SeededRNG("g"))
    )
    assert batched < 0.25, f"batched path took {batched * 1e3:.0f}ms for {N} proofs"


def test_fixed_base_tables_beat_naive_pow(pedersen128):
    """The cached g/h comb tables must stay faster than plain ``**``.

    Measured ~3.3× for single powers and ~2.2× for fused commits on
    p128-sim; 1.3× is the do-not-regress floor (the tables degenerating
    to naive pow would silently double every Σ-OR verification).
    """
    rng = SeededRNG("fixed-base-perf")
    exps = [rng.field_element(pedersen128.q) for _ in range(300)]
    h = pedersen128.h

    naive = best_of(lambda: [h ** e for e in exps])
    table = best_of(lambda: [pedersen128.pow_h(e) for e in exps])

    assert table * 1.3 < naive, (
        f"fixed-base table {table * 1e3:.1f}ms vs naive pow {naive * 1e3:.1f}ms"
    )


def test_serialization_overhead_at_nb4096(pedersen128):
    """Wire-layer canary for the distributed front-end (repro.net).

    At nb = 4096 on p128-sim, encoding a full coin-commitment message
    must stay under half the batched verification time (measured ~0.13×),
    and decoding — which *includes* per-element group-membership
    validation, a Jacobi symbol per element and no exponentiation — under
    the sequential verification time (measured 0.4–0.55×; 1.1× when
    membership was Euler's criterion).  Regressing past these bounds
    means the serving path's bottleneck moved from cryptography to
    serialization.
    """
    from repro.core.params import PublicParams
    from repro.core.prover import Prover
    from repro.core.verifier import PublicVerifier
    from repro.crypto.serialization import decode_message, encode_message

    params = PublicParams(
        pedersen=pedersen128, epsilon=1.0, delta=2**-10, nb=4096, num_provers=1
    )
    prover = Prover("prover-0", params, SeededRNG("ser-perf"))
    message = prover.commit_coins(b"perfsmoke")

    frame = encode_message(message)
    decoded = decode_message(params.group, frame)
    encode_s = best_of(lambda: encode_message(message))
    decode_s = best_of(lambda: decode_message(params.group, frame))

    def verify(seed: str, batch: bool) -> None:
        verifier = PublicVerifier(params, SeededRNG(seed), batch=batch)
        assert verifier.verify_coin_commitments(decoded, b"perfsmoke")

    batch_s = best_of(lambda: verify("v", True))
    seq_s = best_of(lambda: verify("v2", False))

    assert encode_s < 0.5 * batch_s, (
        f"encoding 4096 coins took {encode_s * 1e3:.0f}ms vs "
        f"{batch_s * 1e3:.0f}ms batched verification"
    )
    assert decode_s < seq_s, (
        f"decoding 4096 coins took {decode_s * 1e3:.0f}ms vs "
        f"{seq_s * 1e3:.0f}ms sequential verification"
    )


def test_membership_costs_no_full_width_modexp():
    """Structural canary: decoding a ``modp-2048`` element (length check,
    range check, Jacobi symbol) must stay ≥ 10× cheaper than Euler's
    criterion on the same value (measured ~70× pure, ~1000× on libgmp) —
    i.e. nobody put a full-width ``pow`` back on the per-element decode
    path.  Where libgmp loads, decoding must also stay ≥ 5× cheaper than
    the pure ``numth.jacobi_symbol`` (measured ~16×): a silent fallback to
    the pure loop fails here."""
    from repro.crypto import gmp
    from repro.utils.numth import jacobi_symbol, legendre_symbol

    group = SchnorrGroup.named("modp-2048")
    element = group.generator() ** 0xC0FFEE
    data, value, p = element.to_bytes(), element.value, group.modulus
    assert group.from_bytes(data) == element and legendre_symbol(value, p) == 1

    decode_s = best_of(lambda: [group.from_bytes(data) for _ in range(5)])
    euler_s = best_of(lambda: [legendre_symbol(value, p) for _ in range(5)])
    assert decode_s * 10 < euler_s, (
        f"from_bytes {decode_s / 5 * 1e6:.0f}µs vs Euler's criterion "
        f"{euler_s / 5 * 1e6:.0f}µs per modp-2048 element"
    )
    if gmp._native() is None:
        return  # no libgmp on this host: the pure loop is the path
    pure_s = best_of(lambda: [jacobi_symbol(value, p) for _ in range(5)])
    assert decode_s * 5 < pure_s, (
        f"from_bytes {decode_s / 5 * 1e6:.0f}µs vs the pure Jacobi loop "
        f"{pure_s / 5 * 1e6:.0f}µs per modp-2048 element with libgmp loaded"
    )


def test_fused_commit_beats_two_pows(pedersen128):
    """Com(x, r) in one interleaved comb walk vs two naive pows (~2.2×
    measured; 1.2× floor)."""
    rng = SeededRNG("fused-commit-perf")
    pairs = [
        (rng.field_element(pedersen128.q), rng.field_element(pedersen128.q))
        for _ in range(200)
    ]
    g, h = pedersen128.g, pedersen128.h

    naive = best_of(lambda: [(g ** x) * (h ** r) for x, r in pairs])
    fused = best_of(lambda: [pedersen128.commit(x, r) for x, r in pairs])

    assert fused * 1.2 < naive, (
        f"fused commit {fused * 1e3:.1f}ms vs two pows {naive * 1e3:.1f}ms"
    )


def _tier_log(monkeypatch) -> list[str]:
    """The tier functions ``multi_exponentiation`` runs, in call order."""
    from repro.crypto import multiexp

    ran: list[str] = []
    for name in ("_naive", "_straus", "_pippenger", "_pippenger_signed"):
        tier = getattr(multiexp, name)
        monkeypatch.setattr(
            multiexp, name, lambda *args, _name=name, _tier=tier: ran.append(_name) or _tier(*args)
        )
    return ran


@pytest.mark.parametrize(
    "name, n, native_tier, pure_tier",
    [
        ("p128-sim", 8, "_naive", "_straus"),
        ("p128-sim", 32, "_naive", "_pippenger"),
        ("p128-sim", 256, "_naive", "_pippenger"),
        ("p128-sim", 1024, "_naive", "_pippenger"),
        ("p128-sim", 16384, "_pippenger", "_pippenger"),
        ("p64-sim", 8, "_naive", "_naive"),
        ("p64-sim", 64, "_pippenger", "_pippenger"),
        ("p64-sim", 384, "_pippenger", "_pippenger"),
        ("ristretto255", 1024, "_pippenger_signed", "_pippenger_signed"),
    ],
)
def test_automatic_tier_and_bucket_variant_picks(
    monkeypatch, power_loader, name, n, native_tier, pure_tier
):
    """The cost model's pick, pinned exactly: the tier at sizes on both
    sides of every crossover of the two simulation groups, and the bucket
    variant at nb = 1024 — signed digits on the negation-free curve,
    unsigned buckets on p128-sim, where negation is a batched inversion.

    From ``_NATIVE_POWER_MIN_BITS`` (p128-sim) up, libgmp prices a power
    at ``pow_muls`` multiplications and the naive tier — one native
    product — wins until the buckets' per-term cost falls below it
    (between n = 4096 and 16384); with libgmp refused the picks are the
    pure ones.  p64-sim is below the width rule: the same picks either way.

    The pick is a pure function of (n, bits, kernel hints), so it is
    asserted, not timed: the wall-clock canaries this replaces timed one
    path against another on a host whose speed flips 1.0×↔1.5× and
    failed in 3 of 20 runs with nothing changed."""
    from repro.crypto.multiexp import multi_exponentiation
    from repro.crypto.ristretto import RistrettoGroup

    if name == "ristretto255":
        group = RistrettoGroup.instance()
    else:  # built anew, so its kernel asks the loader this test arranged
        group = SchnorrGroup.named.__wrapped__(name)
    rng = SeededRNG(f"auto-tier-{name}-{n}")
    bases = [group.random_element(rng) for _ in range(n)]
    exps = [rng.field_element(group.order) for _ in range(n)]
    ran = _tier_log(monkeypatch)
    multi_exponentiation(group, bases, exps)
    assert ran == [native_tier if power_loader == "libgmp" else pure_tier]


def test_signed_buckets_multiply_less_where_selected(monkeypatch):
    """Signed-digit against unsigned buckets on ristretto255 at nb = 1024,
    counted rather than timed: the variant the model picks there (above)
    must be the one that multiplies less, and the model's cost of each —
    an estimate in group multiplications, squarings included — must stay
    an upper bound within 20 % of the count (measured 0.89 unsigned,
    0.86 signed: the fold is priced at two products a bucket, and empty
    buckets cost nothing)."""
    from repro.crypto import multiexp
    from repro.crypto.ristretto import RistrettoGroup

    group = RistrettoGroup.instance()
    rng = SeededRNG("signed-perfsmoke")
    nb = 1024
    bases = [group.random_element(rng) for _ in range(nb)]
    exps = [rng.field_element(group.order) for _ in range(nb)]
    bits = max(e.bit_length() for e in exps)
    kernel = type(group.multiexp_kernel())
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return staticmethod(wrapper)

    monkeypatch.setattr(kernel, "mul", counting(kernel.mul))
    monkeypatch.setattr(kernel, "sqr", counting(kernel.sqr))
    neg_muls = group.multiexp_kernel().neg_muls
    model = {
        "pippenger-unsigned": multiexp._pippenger_cost(
            nb, bits, multiexp._pippenger_window(nb, bits)
        ),
        "pippenger-signed": multiexp._pippenger_cost(
            nb,
            bits,
            multiexp._pippenger_window(nb, bits, signed=True, neg_muls=neg_muls),
            signed=True,
            neg_muls=neg_muls,
        ),
    }
    counted = {}
    for variant in model:
        calls[0] = 0
        multiexp.multi_exponentiation(group, bases, exps, algorithm=variant)
        counted[variant] = calls[0]
    assert counted["pippenger-signed"] < counted["pippenger-unsigned"], counted
    for variant, cost in model.items():
        assert 0.8 * cost <= counted[variant] <= cost, (variant, counted[variant], cost)


def test_proving_a_coin_is_fixed_base_work_only():
    """``prove_bits`` of 64 coins on ristretto255 vs one full-width
    ``commit_many`` of 64.

    A proof is 4 comb-walk equivalents (witness check, a fused two-scalar
    announcement, a one-scalar announcement) plus hashing: measured ≈ 2.7×
    the commit pass.  A variable-base power creeping back into the prover
    (the old ``T_sim ** -e_sim``) costs ≈ 6×; 5× is the floor between.
    """
    from repro.crypto.ristretto import RistrettoGroup

    pedersen = PedersenParams(RistrettoGroup.instance())
    rng = SeededRNG("prove-perf")
    n = 64
    cs, os_ = pedersen.commit_vector([rng.coin() for _ in range(n)], rng)
    xs = [rng.field_element(pedersen.q) for _ in range(n)]
    rs = [rng.field_element(pedersen.q) for _ in range(n)]

    commit = best_of(lambda: pedersen.commit_many(xs, rs))
    prove = best_of(
        lambda: prove_bits(pedersen, cs, os_, Transcript("pp"), SeededRNG("p"))
    )
    assert prove < 5 * commit, (
        f"proving {n} coins {prove * 1e3:.1f}ms vs committing {commit * 1e3:.1f}ms"
    )


def test_exact_verification_walks_one_squaring_chain(monkeypatch):
    """One exact ``verify_bit`` on ristretto255, counted rather than timed.

    Both ``c`` powers share one chain, so a proof costs at most
    ``order_bits`` doublings (252 measured) and never calls the generic
    ``**``; a second ladder creeping back doubles the count on any host.
    """
    from repro.crypto import multiexp
    from repro.crypto.ristretto import RistrettoGroup, RistrettoPoint
    from repro.crypto.sigma.or_bit import prove_bit, verify_bit

    group = RistrettoGroup.instance()
    pedersen = PedersenParams(group)
    rng = SeededRNG("exact-perf")
    c, o = pedersen.commit_fresh(1, rng)
    proof = prove_bit(pedersen, c, o, Transcript("ex"), rng)

    kernel = type(group.multiexp_kernel())
    calls = {"sqr": 0, "mul": 0, "scale": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(kernel, "sqr", staticmethod(counting("sqr", kernel.sqr)))
    monkeypatch.setattr(kernel, "mul", staticmethod(counting("mul", kernel.mul)))
    monkeypatch.setattr(RistrettoPoint, "scale", counting("scale", RistrettoPoint.scale))

    verify_bit(pedersen, c, proof, Transcript("ex"))

    assert calls["scale"] == 0
    assert 0 < calls["sqr"] <= group.order.bit_length() + 2 * multiexp._SHARED_CHAIN_WINDOW
    # ≈ 260 measured: two bucket walks + folds, three comb walks' lookups.
    assert calls["mul"] <= 300


def test_native_ristretto_commit_beats_the_pure_one():
    """``Com(x, r)`` *with its encoding* — what a prover publishes — on
    libsodium against the pure reference (skipped where the library does
    not load).

    Measured ≈ 85 µs against ≈ 470 µs (5×: two native powers and an
    addition against an 86-add comb walk plus a field exponentiation to
    encode).  2× is the floor: below it the native path has grown Python
    around its three foreign calls, or lost the base-point routine.
    """
    from repro.crypto.ristretto import RistrettoGroup
    from repro.crypto.sodium import SodiumRistrettoGroup

    native_group = SodiumRistrettoGroup.instance()
    if native_group is None:
        pytest.skip("libsodium with ristretto255 is not loadable on this host")
    pure, native = PedersenParams(RistrettoGroup.instance()), PedersenParams(native_group)
    rng = SeededRNG("native-perf")
    xs = [rng.field_element(pure.q) for _ in range(32)]
    rs = [rng.field_element(pure.q) for _ in range(32)]

    def published(params):
        return [c.to_bytes() for c in params.commit_many(xs, rs)]

    assert published(pure) == published(native)
    slow, fast = best_of(lambda: published(pure)), best_of(lambda: published(native))
    assert fast * 2 < slow, f"native {fast * 1e3:.1f}ms vs pure {slow * 1e3:.1f}ms for 32 commits"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the 40 ms delayed-ACK timer this canary watches for is Linux's",
)
def test_an_enrolment_burst_does_not_wait_on_a_delayed_ack():
    """The stall canary: 17 frames written back to back (one per client
    plus ``done`` — the enrolment stream at the benchmark's socket sizes)
    reach a listener that reads them one by one without any of them
    waiting out the reader's delayed ACK.

    Without ``TCP_NODELAY`` Nagle holds frames 2…17 until frame 1 is
    ACKed, and once two request/reply exchanges (the handshake and the
    params exchange of a real session; repeated before every burst,
    because a one-way burst puts the reader back into quick-ACK mode)
    have made the connection interactive that ACK is 40 ms away:
    measured 40.8–57.7 ms per burst without the option, every time,
    against 0.13–0.20 ms with it.  No sleeps and one thread: loopback
    buffers hold the whole burst.
    """
    from repro.net.transport import SocketTransport

    def session_opening() -> None:
        for _ in range(2):
            peer.send("analyst", b"request")
            listener.recv("clients", timeout=5.0)
            listener.send("clients", b"reply")
            peer.recv("analyst", timeout=5.0)
        for _ in range(17):
            peer.send("analyst", b"\x00" * 360)
        for _ in range(17):
            listener.recv("clients", timeout=5.0)

    listener = SocketTransport.listen("analyst")
    peer = SocketTransport.connect("clients", "analyst", port=listener.port)
    try:
        listener.accept(1, timeout=5.0)
        best = best_of(session_opening, repeats=5)
    finally:
        peer.close()
        listener.close()
    assert best < 0.020, f"best of 5 bursts took {best * 1e3:.1f}ms"


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="proving and checking overlap only on two CPUs",
)
def test_chunk_replies_are_waited_for_while_the_previous_chunk_is_checked(monkeypatch):
    """The coin pipeline's canary, on real processes and a real socket:
    at the ``socket-session`` spec the analyst spends far less time in
    the transport asking for and collecting chunks and their Morra
    sample/commit replies than the same session driven in lock-step
    (emulated here by sending no request ahead: each chunk, sample and
    commit is a round trip made when it is collected) — the prover proved
    the chunk and committed its Morra contributions while the analyst was
    checking the one before.

    Measured at the parent schedule (chunk requests only) after a few
    seconds of load: 9–27 ms of a pipelined session against 33–56 ms of a
    lock-step one, pair by pair 0.2–0.6 ×.  A host coming out of idle
    runs this VM on one CPU for its first seconds (pairs read 0.9–1.1 ×
    there, as they would if the overlap were gone), so the canary takes
    pairs until one shows the gap, and fails only if fifteen in a row do
    not.  The session's wall against a solo ``Session`` does not resolve
    the same change on this host, which is why the wait itself is
    watched; the order of frames and checks is pinned without a clock in
    ``tests/net/test_coin_pipeline.py``.
    """
    from repro.api.queries import CountQuery
    from repro.net.nodes import RemoteProver
    from repro.net.serve import run_distributed_session
    from repro.net.transport import Transport

    state = {"pipelined": True, "chunk_io": False, "blocked": 0.0}

    def timed(inner):
        def wrapper(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(self, *args, **kwargs)
            finally:
                if state["chunk_io"]:
                    state["blocked"] += time.perf_counter() - start

        return wrapper

    def chunk_io(fn):
        def wrapper(self, *args):
            state["chunk_io"] = True
            try:
                return fn(self, *args)
            finally:
                state["chunk_io"] = False

        return wrapper

    request = RemoteProver.request_coin_chunk

    def request_coin_chunk(self, *args):
        if state["pipelined"]:
            request(self, *args)

    monkeypatch.setattr(Transport, "send", timed(Transport.send))
    monkeypatch.setattr(Transport, "recv", timed(Transport.recv))
    monkeypatch.setattr(RemoteProver, "request_coin_chunk", chunk_io(request_coin_chunk))
    for name in ("commit_coin_chunk", "sample_values", "commitments"):
        monkeypatch.setattr(RemoteProver, name, chunk_io(getattr(RemoteProver, name)))
    query = CountQuery(epsilon=1.0, delta=2**-10)
    pairs = []
    for _ in range(15):
        blocked = {}
        for pipelined in (True, False):
            state.update(pipelined=pipelined, blocked=0.0)
            outcome = run_distributed_session(
                query,
                [i % 2 for i in range(16)],
                transport="socket",
                num_servers=2,
                group="p128-sim",
                nb_override=256,
                chunk_size=64,
                seed="pipeline-canary",
                verify_equivalence=False,
            )
            assert outcome["accepted"]
            blocked[pipelined] = state["blocked"]
        pairs.append(blocked[True] / blocked[False])
        if pairs[-1] < 0.7:
            return
    raise AssertionError(
        "chunk I/O wait, pipelined / lock-step, never under 0.7: "
        + " ".join(f"{ratio:.2f}" for ratio in pairs)
    )


def test_one_chunk_session_is_linear_in_clients():
    """A one-chunk ``Session`` costs O(n): n = 2048 clients take about 8×
    what n = 256 take (linear is 8×; 8.8× measured), not the ≈ 59× of a
    bus that queued every broadcast once per registered party.  16× is
    the do-not-regress ceiling."""
    from repro.api.queries import CountQuery
    from repro.api.session import Session

    accepted = []

    def run(n: int) -> None:
        session = Session(
            CountQuery(epsilon=1.0, delta=2**-10),
            group="p64-sim",
            nb_override=32,
            num_provers=2,
            rng=SeededRNG(f"linear-{n}"),
        )
        session.submit([i % 2 for i in range(n)])
        accepted.append(session.release().accepted)

    small = best_of(lambda: run(256))
    large = best_of(lambda: run(2048))
    assert all(accepted) and len(accepted) == 6
    assert large < 16 * small, (
        f"n=2048 took {large:.2f}s, n=256 {small:.2f}s ({large / small:.1f}x)"
    )


@pytest.mark.parametrize("name", ["p64-sim", "p128-sim"])
def test_residue_pair_beats_the_comb_pair(name):
    """128 full-width ``g^x·h^y`` on the byte-digit residue rows against
    the window-6 comb tables through the kernel's ``mul``: ≈ 2.2× measured
    on both groups (p64 12.7 → 5.7 µs, p128 31.6 → 14.6 µs); 1.3× is the
    floor under which the pair has fallen back to per-hit calls."""
    from repro.crypto.multiexp import CombPair

    group = SchnorrGroup.named(name)
    pedersen = PedersenParams(group)
    residue = pedersen._fixed
    comb = CombPair(pedersen.g, pedersen.h)
    rng = SeededRNG(f"residue-perf-{name}")
    xs = [rng.field_element(group.order) for _ in range(128)]
    ys = [rng.field_element(group.order) for _ in range(128)]
    assert residue.dual_many(xs, ys) == comb.dual_many(xs, ys)

    # Best of 5 rounds, the two interleaved within a round: a host slowdown
    # then lands on both, not on whichever ran second.
    fast = slow = float("inf")
    for _ in range(5):
        fast = min(fast, best_of(lambda: residue.dual_many(xs, ys), repeats=1))
        slow = min(slow, best_of(lambda: comb.dual_many(xs, ys), repeats=1))
    assert fast * 1.3 < slow, (
        f"residue pair {fast / 128 * 1e6:.1f}µs vs comb pair {slow / 128 * 1e6:.1f}µs on {name}"
    )


def test_modp_2048_pair_builds_no_byte_rows(monkeypatch):
    """modp-2048's pair is the window-6 comb tables: window-8 residue rows
    there would hold 33 MB and take ≈ 2.5 s to build in every process."""
    from repro.crypto import multiexp, schnorr_group

    def forbidden(*args):
        raise AssertionError("modp-2048 built byte-digit residue rows")

    built = []
    monkeypatch.setattr(schnorr_group, "_ResiduePair", forbidden)
    monkeypatch.setattr(multiexp, "CombPair", lambda a, b: built.append((a, b)) or "comb")
    group = SchnorrGroup(
        SchnorrGroup.named("modp-2048").modulus, name="modp-2048-build", check=False
    )
    g, h = group.generator(), group.hash_to_group(b"build")
    assert group.fixed_base_pair(g, h) == "comb"
    assert built == [(g, h)]
