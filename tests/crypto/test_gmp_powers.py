"""libgmp's power product against the pure powers.

From ``schnorr_group._NATIVE_POWER_MIN_BITS`` of modulus up, the Schnorr
kernel's naive multiexp tier and ``**`` run on ``mpz_powm``
(``gmp.power_product``); everywhere else, and wherever libgmp is refused
or fails its self-test, they run CPython's ``pow``.  Both must give the
same group element on every input.  The reference here is CPython's
``pow`` on the raw residues, which neither path shares.
"""

import ctypes
import sys
import threading
from functools import lru_cache

import pytest

from repro.crypto import gmp, schnorr_group
from repro.crypto.multiexp import multi_exponentiation
from repro.crypto.schnorr_group import NAMED_GROUPS, SchnorrGroup
from repro.utils.rng import SeededRNG

WIDE = ("p128-sim", "p256-sim", "modp-2048")


def fresh_group(name: str) -> SchnorrGroup:
    """The named group built anew: its kernel and ``**`` decide their
    power path at first use, under whatever the calling test arranged."""
    return SchnorrGroup.named.__wrapped__(name)


def reference(p: int, bases: list, exps: list) -> int:
    acc = 1
    for base, e in zip(bases, exps):
        acc = acc * pow(base.value, e, p) % p
    return acc


def batch(group: SchnorrGroup, n: int, seed: str) -> tuple[list, list]:
    """n random bases and exponents in [−q, 2q), with the edges mixed in:
    a zero exponent (dropped), q − 1, negatives and the identity as base."""
    rng = SeededRNG(seed)
    q = group.order
    bases = [group.random_element(rng) for _ in range(n)]
    exps = [rng.randrange(-q, 2 * q) for _ in range(n)]
    edges = [(group.identity(), rng.field_element(q)), (bases[0], 0), (bases[-1], q - 1), (bases[0], -5)]
    for i, (base, e) in enumerate(edges[: n - 1]):
        bases[i + 1], exps[i + 1] = base, e
    return bases, exps


@pytest.fixture(scope="module")
def needs_libgmp():
    if gmp._native_powers() is None:
        pytest.skip("libgmp is not loadable on this host")


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in WIDE[:2] for n in (1, 2, 5, 33, 200)] + [("modp-2048", 1), ("modp-2048", 5)],
)
def test_multiexp_native_against_pure(name, n, power_loader):
    group = fresh_group(name)
    bases, exps = batch(group, n, f"gmp-multiexp-{name}-{n}")
    expected = reference(group.modulus, bases, exps)
    assert multi_exponentiation(group, bases, exps).value == expected
    assert multi_exponentiation(group, bases, exps, algorithm="naive").value == expected


@pytest.mark.parametrize("name", WIDE)
class TestNativeAgainstPure:
    def test_powers(self, name, power_loader):
        group = fresh_group(name)
        q, p = group.order, group.modulus
        rng = SeededRNG(f"gmp-pow-{name}")
        base = group.random_element(rng)
        exps = [0, 1, 2, q - 1, q, q + 3, -1, -q - 3, rng.field_element(q), rng.randrange(-q, 0)]
        for e in exps:
            assert (base**e).value == pow(base.value, e % q, p), e
            assert (group.identity() ** e).value == 1
        assert group.generator() ** q == group.identity()

    def test_the_loader_decides(self, name, power_loader):
        kernel = fresh_group(name).multiexp_kernel()
        assert (kernel.pow_product is not None) == (power_loader == "libgmp")
        assert (kernel.pow_muls is not None) == (power_loader == "libgmp")


@pytest.mark.parametrize("name", ("p32-sim", "p64-sim"))
def test_narrow_groups_stay_pure(name, needs_libgmp):
    """Below the width rule nothing opens ``mpz_powm``, libgmp or not."""
    kernel = SchnorrGroup.named(name).multiexp_kernel()
    assert NAMED_GROUPS[name].bit_length() < schnorr_group._NATIVE_POWER_MIN_BITS
    assert kernel.pow_product is None and kernel.pow_muls is None


@pytest.mark.parametrize("name", ("p128-sim", "modp-2048"))
def test_concurrent_products_get_the_pure_results(name, needs_libgmp):
    """``ctypes`` releases the GIL inside every GMP call, and each product
    owns its scratch: 8 threads multiexp-ing and powering on one group at
    once must each get exactly the reference results."""
    group = fresh_group(name)
    size, rounds = (3, 2) if name == "modp-2048" else (24, 20)
    jobs = [batch(group, size, f"gmp-threads-{name}-{i}") for i in range(8)]
    expected = [reference(group.modulus, *job) for job in jobs]
    powers = [(base**e).value for base, e in zip(*jobs[0])]
    start, results = threading.Barrier(8, timeout=30), {}

    def work(worker: int) -> None:
        start.wait()
        out = []
        for r in range(rounds):
            job = (worker + r) % 8
            out.append(multi_exponentiation(group, *jobs[job]).value == expected[job])
            out.append([(b**e).value for b, e in zip(*jobs[0])] == powers)
        results[worker] = out

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {worker: [True] * (2 * rounds) for worker in range(8)}


class TestFallback:
    @pytest.fixture()
    def fresh_decision(self, monkeypatch):
        """Make this test decide again whether libgmp computes powers; the
        process-wide decision comes back afterwards."""
        monkeypatch.setattr(
            gmp, "_native_powers", lru_cache(maxsize=1)(gmp._native_powers.__wrapped__)
        )

    def assert_pure(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a refused libgmp computed a power")

        monkeypatch.setattr(gmp, "_product", forbidden)
        assert gmp.power_product(NAMED_GROUPS["p128-sim"]) is None
        group = fresh_group("p128-sim")
        bases, exps = batch(group, 12, "gmp-fallback")
        assert multi_exponentiation(group, bases, exps).value == reference(group.modulus, bases, exps)
        assert (bases[0] ** exps[0]).value == pow(bases[0].value, exps[0] % group.order, group.modulus)

    def test_self_test_fails(self, fresh_decision, monkeypatch):
        monkeypatch.setattr(gmp, "_powers_self_test", lambda functions, limb_bits: False)
        self.assert_pure(monkeypatch)

    def test_library_without_mpz_powm(self, fresh_decision, monkeypatch):
        class Minimal:
            def __getattr__(self, symbol):
                raise AttributeError(f"undefined symbol: {symbol}")

        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: Minimal())
        assert gmp._load_powers() is None
        self.assert_pure(monkeypatch)

    def test_a_wrong_answer_fails_the_self_test(self, needs_libgmp):
        functions, limb_bits = gmp._load_powers()
        powm, mul, mod, init2, clear = functions
        assert gmp._powers_self_test(functions, limb_bits)

        def low_limb_exponent(r, b, e, m):  # a library that reads one exponent limb
            alloc, size, d = gmp._HEAD.unpack(ctypes.string_at(e, gmp._HEAD.size))
            short = ctypes.create_string_buffer(gmp._HEAD.pack(alloc, min(size, 1), d))
            powm(r, b, ctypes.addressof(short), m)

        for wrong in (
            [low_limb_exponent, mul, mod, init2, clear],
            [powm, mul, lambda r, a, m: None, init2, clear],  # never reduces
            [powm, lambda r, a, b: None, mod, init2, clear],  # drops later terms
        ):
            assert not gmp._powers_self_test(wrong, limb_bits)
        assert gmp._powers_self_test(functions, limb_bits)

