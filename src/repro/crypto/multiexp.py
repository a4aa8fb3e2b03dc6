"""Tiered multi-exponentiation engine.

The verifier's Line 13 check in ΠBin is one big product
``prod(c_i) * prod(ĉ'_j) == Com(y, z)`` — a multi-exponentiation once the
commitments are unwound — and Σ-proof batch verification is a random
linear combination of many (base, exponent) pairs: at paper scale
(nb = 262,144 coins per prover) a single batch contains hundreds of
thousands of terms.  No one algorithm is right across that range, so
:func:`multi_exponentiation` picks between three tiers:

``naive``
    Independent ``pow`` per pair.  Optimal for n ≤ 2 on short exponents:
    there is no shared work to exploit and the per-call constant is the
    smallest.  (For 2048-bit groups the shared square chain already wins
    at n = 2 — the selector is cost-model driven, not a fixed cutoff.)
    It is also the tier of a backend whose power is a library call far
    cheaper than ``bits`` of its own additions (libsodium's ristretto255):
    per-term scale-and-add, at every n.

``straus``
    Straus interleaving with width-w NAF recoding and odd-multiple
    tables: one shared square chain for all bases; each base contributes
    a table of 2^(w-2) odd multiples and touches the accumulator only on
    its (sparse, density 1/(w+1)) nonzero signed digits.  Table
    negations cost nothing on the curve backends (negate a coordinate)
    and one Montgomery batch inversion on the Schnorr backend.  Best for
    small-to-medium n where per-base tables still amortize.

``pippenger``
    Pippenger's bucket method: per c-bit window, throw each base into the
    bucket of its digit (one multiplication per base per window — no
    per-base tables at all), then fold the buckets with a running sum.
    Two digit decompositions exist side by side:

    * **unsigned** — digits in [0, 2^c); 2^c − 1 buckets per window;
      cost ≈ ceil(b/c)·(n + 2^(c+1)) multiplications.
    * **signed** (2^c-ary NAF) — digits in [−2^(c−1), 2^(c−1)), realized
      by adding the constant offset H = Σ_w 2^(c−1)·2^(cw) to every
      exponent once and subtracting 2^(c−1) from each extracted digit
      (no per-window carry propagation).  Buckets are shared between ±d
      (a negative digit files the *negated* base, from one up-front
      ``neg_many`` pass), so each window needs only 2^(c−1) buckets —
      half the fold — which lets c grow by ~1 and cuts the window count:
      cost ≈ (ceil(b/c)+1)·(n + 2^c) + neg·n.

    The ``neg`` term is the whole story of which variant wins.  On the
    curve backends negation is a coordinate flip (neg ≈ 0) and signed
    digits are a measured ~1.1–1.2× at n ≥ 1024.  On the Schnorr integer
    backends "negation" is a modular inversion — 3 multiplications per
    base even with Montgomery batching — which almost exactly cancels
    the saved windows (Δwindows·n ≈ 3n multiplications), so unsigned
    buckets stay faster and the selector keeps them.  The kernel hint
    ``neg_muls`` (multiplications per negation) feeds this decision, and
    prices Straus' one negation pass over its tables.

    A kernel that declares ``modulus`` (the Schnorr groups) gets the
    unsigned buckets as an int loop, :func:`_pippenger_residues`: no
    ``mul`` call per bucket hit, the squarings between windows one C
    ``pow``, and up to ``_LIST_BUCKET_MAX_BITS`` each bucket a list of
    residues multiplied once by ``math.prod`` — an append costs a third
    of an in-place ``* … % p`` on p64-sim, while from p128-sim up an
    unreduced product of several residues costs more than reducing after
    each, so wider residues multiply in place.  Its signed digits would
    still run the kernel-call loop, so it also declares
    ``signed_buckets = False`` and the selector keeps it unsigned.

Selection is :func:`select_algorithm`: a pure function of the batch size,
the exponent width and the kernel's hints — no file, no environment
variable, nothing about the host is read.  Costs are in units of one
group multiplication, skewed by what the kernel says about itself:
whether a single exponentiation is CPython's C ``pow`` (≈ bits
multiplication-units per call — measured 37 µs ≈ 123 modmuls on
p128-sim) or a library call priced in additions (``pow_muls``), how
expensive Python loop bookkeeping is relative to one group op, and the
negation cost above.  Measurements validate the model, they do not
override it: ``python -m repro multiexp`` times all three tiers per size
into a report that nothing reads back, and ``tests/perf`` holds the
automatic pick within 1.5× of the fastest forced tier.  Measured
(CPython 3.11, full-width exponents, best of several runs; see
``benchmarks/bench_multiexp.py``):

* p64-sim (residue buckets) — naive is fastest to n ≈ 6–8, the unsigned
  residue buckets from n ≈ 8–10; the model says naive ≤ 10 and
  pippenger from 11, at most 1.15× off in between.  At n = 384 (a
  stream-release chunk's batch) pippenger takes 1.4 ms against 5.1 ms
  straus and 6.8 ms naive, and the residue loop is 1.2–1.3× the
  kernel-call loop;
* p128-sim (residue buckets) — naive is fastest to n ≈ 3, straus for
  n ≈ 4–12 (level with pippenger from 8), pippenger from n ≈ 13–16; the
  model says naive ≤ 7, straus 8–12, pippenger from 13.  At n = 256
  pippenger is 3.7× naive and 2.2× straus;
* p256-sim — naive to n = 2, straus for n ≈ 3–16, pippenger from
  n ≈ 24; the model switches at 4 and 24;
* modp-2048 — one C ``pow`` already costs ~2047 Python modmuls' worth,
  so straus (w = 6) wins from n = 2 (1.6×) and is level with pippenger
  at n ≈ 250–300; pippenger is 1.1–1.2× ahead at n = 400.  With the
  table-negation pass priced and the kernel's ``op_overhead`` re-fitted
  the model switches at n = 304 (910 before);
* ristretto255 in pure Python — no native ``pow``, so straus wins
  from n = 2 (1.7×) and, with curve ops dwarfing bookkeeping, is level
  with pippenger over n ≈ 64–128; the model switches at n ≈ 137–146,
  where pippenger is ~1.2× ahead;
* ristretto255 on libsodium (:mod:`repro.crypto.sodium`) — the kernel's
  ``pow_muls`` hint prices a power at 3 of its own (17 µs) additions, so
  naive — scale each term, add it in, ≈ 70 µs a term — wins at every n
  (n = 256: 17 ms against 253 ms straus, 203 ms pippenger): a shared
  chain built from native additions never pays.

The engine is backend-agnostic but *not* object-per-operation: every
backend's :meth:`~repro.crypto.group.Group.multiexp_kernel` returns a
raw-representation kernel (ints mod p for Schnorr groups, extended
Edwards coordinates for ristretto255, encodings for libsodium).  All
accumulation happens on raw values — points stay in extended
coordinates across the whole product, and nothing is normalized until
the single final result is converted back to a ``GroupElement``.

Beside the product tiers sits one *exact* kernel,
:func:`shared_base_powers`: several powers of one variable base on a
single squaring chain, for verifiers that may not take a random linear
combination (the public auditor's sequential Σ-OR check).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import prod
from typing import Sequence

from repro.crypto.group import Group, GroupElement
from repro.errors import ParameterError

__all__ = [
    "multi_exponentiation",
    "select_algorithm",
    "FixedBaseTable",
    "CombPair",
    "dual_power",
    "shared_base_powers",
]

# Widest modulus whose residue buckets collect a list and reduce once
# (see _pippenger_residues); wider ones multiply in place.  Measured,
# list against in place: p64-sim n = 384 1.8 against 2.0 ms, n = 1024
# 4.4 against 5.4 ms; p128-sim n = 194 3.9 against 3.6 ms.
_LIST_BUCKET_MAX_BITS = 64

# Straus' per-base wNAF window width, by max exponent bit length.  The
# widest row is measured on modp-2048 (n = 16 / 64, w = 4 / 5 / 6 / 7:
# 108 / 100 / 96 / 102 ms and 361 / 322 / 308 / 335 ms).
_STRAUS_WINDOWS = ((64, 3), (256, 4), (1023, 5), (1 << 30, 6))


# ---------------------------------------------------------------------------
# Cost model and tier selection
# ---------------------------------------------------------------------------
#
# Costs are estimated in units of one group multiplication.  Two backend
# facts skew the comparison and are supplied by the kernel:
#
# * ``native_pow`` — Schnorr backends dispatch single exponentiations to
#   CPython's C ``pow`` (≈ ``bits`` multiplication-units per call), which
#   makes the naive tier cheap; curve backends run a Python double-and-add
#   (≈ 1.3·bits units), which does not.
# * ``op_overhead`` — Python loop bookkeeping (dict lookups, tuple
#   unpacking) costs a roughly fixed ~0.5 µs per table hit, which is
#   material when a multiplication is a 128-bit modmul (~0.3 µs) and
#   noise when it is a 2048-bit modmul or a curve addition (5–10 µs).


def _straus_cost(
    n: int, bits: int, window: int, overhead: float, neg_muls: float = 0.0
) -> float:
    """Modeled multiplications for one Straus run at wNAF width ``window``:
    the shared square chain, n odd-multiple tables, the one ``neg_many``
    pass over all n·2^(w−2) table entries, and the table hits."""
    entries = n * (1 << (window - 2))
    tables = entries + n
    hits = n * (bits / (window + 1)) * (1.0 + 1.5 * overhead)
    return 1.5 * bits + tables + neg_muls * entries + hits


def _pippenger_cost(
    n: int, bits: int, c: int, *, signed: bool = False, neg_muls: float = 0.0
) -> float:
    """Modeled multiplications for one bucket-method run at window c.

    Unsigned: ceil(b/c) windows, 2^c − 1 buckets folded at ~2 muls each.
    Signed: one extra window (the digit-offset carry-out), half the
    buckets, plus ``neg_muls`` per base for the one-time negation pass.
    """
    if signed:
        nwin = -(-bits // c) + 1
        return nwin * (n + (1 << c) + 2) + bits + (neg_muls + 0.3) * n
    nwin = -(-bits // c)
    return nwin * (n + (1 << (c + 1)) + 2) + bits


@lru_cache(maxsize=4096)
def _pippenger_window(
    n: int, bits: int, *, signed: bool = False, neg_muls: float = 0.0
) -> int:
    """The cheapest window c for (n, bits) — memoised: a pure function of
    its arguments, and its 21-way search (≈ 12 µs, paid twice per
    automatic pick) is a quarter of a small batch's whole product."""
    best_c, best_cost = 1, float("inf")
    for c in range(1 + (1 if signed else 0), 22):
        cost = _pippenger_cost(n, bits, c, signed=signed, neg_muls=neg_muls)
        if cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _pippenger_variant(n: int, bits: int, neg_muls: float) -> tuple[str, float]:
    """The cheaper bucket decomposition for this (n, bits, negation cost).

    Returns ("pippenger-signed" | "pippenger-unsigned", modeled cost).
    Curve kernels (neg_muls ≈ 0) get signed digits from medium n; the
    Schnorr integer kernels (neg_muls ≈ 3) keep unsigned buckets — the
    batched-inversion negation eats the saved windows.
    """
    unsigned = _pippenger_cost(n, bits, _pippenger_window(n, bits))
    signed = _pippenger_cost(
        n,
        bits,
        _pippenger_window(n, bits, signed=True, neg_muls=neg_muls),
        signed=True,
        neg_muls=neg_muls,
    )
    if signed < unsigned:
        return "pippenger-signed", signed
    return "pippenger-unsigned", unsigned


def _straus_window(bits: int) -> int:
    for limit, window in _STRAUS_WINDOWS:
        if bits <= limit:
            return window
    return _STRAUS_WINDOWS[-1][1]  # pragma: no cover - table covers all bits


def select_algorithm(
    n: int,
    bits: int,
    *,
    native_pow: bool = True,
    op_overhead: float = 1.3,
    neg_muls: float | None = None,
    pow_muls: float | None = None,
    signed_buckets: bool = True,
) -> str:
    """Pick the cheapest tier for ``n`` pairs of ``bits``-bit exponents.

    Returns ``"naive"``, ``"straus"`` or ``"pippenger"`` — a pure
    function of its arguments.  The defaults describe the 128-bit Schnorr
    simulation groups; callers with a group in hand should let
    :func:`multi_exponentiation` pass the kernel's own ``native_pow`` /
    ``op_overhead`` / ``neg_muls`` hints.  Straus is priced at the width
    :func:`_straus_window` gives for ``bits``, which is the width
    :func:`multi_exponentiation` then runs.  Exposed so the benchmarks
    (and curious tests) can introspect the crossover points.

    ``neg_muls`` prices one negation: Straus negates every table entry
    once, signed buckets every base; None prices Straus' pass at nothing
    and keeps the buckets unsigned.  ``signed_buckets=False`` keeps them
    unsigned too, for a kernel whose unsigned buckets run a faster loop
    than its signed ones (the Schnorr residue kernels).

    ``pow_muls`` is for a kernel whose power is a library call priced in
    its own additions rather than in ``bits`` of them (libsodium: one
    scalar multiplication ≈ 3 additions, each 4× a Python one): the naive
    tier — scale each term, add it in — then costs ``n·(pow_muls + 1)``
    against ≥ ``bits/window`` additions a term for anything that shares a
    chain, so it wins at every n with full-width exponents.
    """
    if n <= 1 or bits <= 1:
        return "naive"
    if pow_muls is not None:
        naive = n * (pow_muls + 1.0)
    else:
        naive = n * bits * (1.0 if native_pow else 1.3)
    straus = _straus_cost(n, bits, _straus_window(bits), op_overhead, neg_muls or 0.0)
    if neg_muls is None or not signed_buckets:
        pippenger = _pippenger_cost(n, bits, _pippenger_window(n, bits))
    else:
        pippenger = _pippenger_variant(n, bits, neg_muls)[1]
    best = min(naive, straus, pippenger)
    if best == naive:
        return "naive"
    return "straus" if straus <= pippenger else "pippenger"


# ---------------------------------------------------------------------------
# The three tiers (all operate on kernel-raw bases)
# ---------------------------------------------------------------------------


def _naive(group: Group, bases: list[GroupElement], exps: list[int]) -> GroupElement:
    acc = None
    for base, e in zip(bases, exps):
        term = base ** e
        acc = term if acc is None else acc * term
    return acc if acc is not None else group.identity()


def _wnaf_events(e: int, window: int) -> list[tuple[int, int]]:
    """Width-w NAF as sparse (position, signed odd digit) events.

    Digits lie in (-2^(w-1), 2^(w-1)) with density 1/(w+1); zero runs are
    skipped in one step via trailing-zero counting, so recoding costs one
    loop iteration per *nonzero* digit rather than one per bit.
    """
    full = 1 << window
    half = full >> 1
    mask = full - 1
    events = []
    pos = 0
    while e > 0:
        tz = (e & -e).bit_length() - 1
        e >>= tz
        pos += tz
        d = e & mask
        if d >= half:
            d -= full
        events.append((pos, d))
        # e - d is divisible by 2^w, so jump a whole window ahead.
        e = (e - d) >> window
        pos += window
    return events


def _straus(kernel, raw_bases: list, exps: list[int], window: int) -> object:
    mul, sqr = kernel.mul, kernel.sqr
    # Odd multiples 1, 3, ..., 2^(w-1)-1 of every base, plus (batched)
    # negations so signed digits are table lookups too.
    odd_counts = 1 << (window - 2)
    tables: list[list] = []
    flat: list = []
    for raw in raw_bases:
        row = [raw]
        if odd_counts > 1:
            sq = sqr(raw)
            for _ in range(1, odd_counts):
                row.append(mul(row[-1], sq))
        tables.append(row)
        flat.extend(row)
    flat_neg = kernel.neg_many(flat)

    # Bucket the table hits by bit position so the shared square chain
    # only touches bases that actually have a nonzero digit there.
    hits: dict[int, list] = {}
    top = 0
    for i, e in enumerate(exps):
        row_start = i * odd_counts
        for pos, d in _wnaf_events(e, window):
            entry = (
                tables[i][d >> 1] if d > 0 else flat_neg[row_start + ((-d) >> 1)]
            )
            hits.setdefault(pos, []).append(entry)
            if pos > top:
                top = pos

    acc = None
    for pos in range(top, -1, -1):
        if acc is not None:
            acc = sqr(acc)
        for entry in hits.get(pos, ()):
            acc = entry if acc is None else mul(acc, entry)
    return acc if acc is not None else kernel.identity_raw


def _fold_buckets(mul, buckets: list, top: int):
    """Σ d·B_d over buckets[1..top], highest digit first.

    running = Σ_{j>=d} B_j; adding the running sum once per step weights
    each bucket by its digit.
    """
    running = None
    window_sum = None
    for d in range(top, 0, -1):
        held = buckets[d]
        if held is not None:
            running = held if running is None else mul(running, held)
        if running is not None:
            window_sum = running if window_sum is None else mul(window_sum, running)
    return window_sum


def _pippenger(kernel, raw_bases: list, exps: list[int], bits: int) -> object:
    """Unsigned bucket decomposition: digits in [0, 2^c), 2^c − 1 buckets."""
    n = len(raw_bases)
    c = _pippenger_window(n, bits)
    modulus = getattr(kernel, "modulus", None)
    if modulus is not None:
        return _pippenger_residues(raw_bases, exps, bits, c, modulus)
    mul, sqr = kernel.mul, kernel.sqr
    mask = (1 << c) - 1
    nwin = -(-bits // c)
    acc = None  # emptiness tracked by flag value, never by identity compare
    for win in range(nwin - 1, -1, -1):
        if acc is not None:
            for _ in range(c):
                acc = sqr(acc)
        shift = win * c
        buckets: list = [None] * (mask + 1)
        for raw, e in zip(raw_bases, exps):
            d = (e >> shift) & mask
            if d:
                held = buckets[d]
                buckets[d] = raw if held is None else mul(held, raw)
        window_sum = _fold_buckets(mul, buckets, mask)
        if window_sum is not None:
            acc = window_sum if acc is None else mul(acc, window_sum)
    return acc if acc is not None else kernel.identity_raw


def _pippenger_residues(
    raw_bases: list[int], exps: list[int], bits: int, c: int, p: int
) -> int:
    """:func:`_pippenger` on residues mod ``p``: the same buckets and fold,
    with every product an inline ``* … % p`` and the c squarings between
    windows one C ``pow``.

    Up to ``_LIST_BUCKET_MAX_BITS`` a bucket collects its residues and
    ``math.prod`` multiplies them unreduced into the fold (an append is
    cheaper than a reduction of a product that small); wider residues
    multiply into their bucket in place, because an unreduced product of
    several wide residues costs more than reducing after each one.
    """
    mask = (1 << c) - 1
    listed = p.bit_length() <= _LIST_BUCKET_MAX_BITS
    acc = 1
    for shift in range((-(-bits // c) - 1) * c, -1, -c):
        acc = pow(acc, 1 << c, p)
        if listed:
            buckets = [[] for _ in range(mask + 1)]
            for raw, e in zip(raw_bases, exps):
                buckets[(e >> shift) & mask].append(raw)
            products = map(prod, buckets[:0:-1])
        else:
            buckets = [1] * (mask + 1)
            for raw, e in zip(raw_bases, exps):
                d = (e >> shift) & mask
                if d:
                    buckets[d] = buckets[d] * raw % p
            products = buckets[:0:-1]
        running = window_sum = 1
        for held in products:
            running = running * held % p
            window_sum = window_sum * running % p
        acc = acc * window_sum % p
    return acc


def _pippenger_signed(kernel, raw_bases: list, exps: list[int], bits: int) -> object:
    """Signed-digit (2^c-ary NAF) buckets: digits in [−2^(c−1), 2^(c−1)).

    The recoding is offset-based, not carry-based: adding
    H = Σ_w 2^(c−1)·2^(cw) to every exponent once turns each unsigned
    digit d' of e + H into the signed digit d = d' − 2^(c−1) of e, so the
    per-window extraction is the same shift-and-mask as the unsigned loop
    plus one subtraction.  A negative digit files the *negated* base —
    one up-front ``neg_many`` pass, batched (free coordinate flips on the
    curve kernels, one Montgomery batch inversion on the Schnorr
    kernels) — into the bucket of |d|, halving the bucket count per
    window and shaving the window count via the wider c this affords.
    """
    mul, sqr = kernel.mul, kernel.sqr
    n = len(raw_bases)
    c = _pippenger_window(
        n, bits, signed=True, neg_muls=getattr(kernel, "neg_muls", 8.0)
    )
    half = 1 << (c - 1)
    mask = (1 << c) - 1
    nwin = -(-bits // c) + 1  # the offset's carry-out needs one top window
    offset = 0
    for _ in range(nwin):
        offset = (offset << c) | half
    shifted = [e + offset for e in exps]
    neg_bases = kernel.neg_many(list(raw_bases))
    acc = None
    for win in range(nwin - 1, -1, -1):
        if acc is not None:
            for _ in range(c):
                acc = sqr(acc)
        shift = win * c
        buckets: list = [None] * (half + 1)
        for raw, neg, e in zip(raw_bases, neg_bases, shifted):
            d = ((e >> shift) & mask) - half
            if d > 0:
                held = buckets[d]
                buckets[d] = raw if held is None else mul(held, raw)
            elif d:
                held = buckets[-d]
                buckets[-d] = neg if held is None else mul(held, neg)
        window_sum = _fold_buckets(mul, buckets, half)
        if window_sum is not None:
            acc = window_sum if acc is None else mul(acc, window_sum)
    return acc if acc is not None else kernel.identity_raw


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def multi_exponentiation(
    group: Group,
    bases: Sequence[GroupElement],
    exponents: Sequence[int],
    *,
    algorithm: str | None = None,
) -> GroupElement:
    """Compute ``prod(bases[i] ** exponents[i])`` with the cheapest tier.

    Exponents are reduced mod the group order (so negative exponents are
    fine) and zero-exponent pairs are dropped before selection.  Pass
    ``algorithm`` ("naive" / "straus" / "pippenger", or the explicit
    bucket variants "pippenger-signed" / "pippenger-unsigned") to
    override the automatic choice — used by the crossover benchmarks and
    the equivalence tests.  Plain "pippenger" still picks the cheaper
    digit decomposition for the backend's negation cost.
    """
    if len(bases) != len(exponents):
        raise ParameterError("bases and exponents length mismatch")
    if algorithm not in (
        None,
        "naive",
        "straus",
        "pippenger",
        "pippenger-signed",
        "pippenger-unsigned",
    ):
        raise ParameterError(f"unknown multiexp algorithm {algorithm!r}")
    order = group.order
    live_bases: list[GroupElement] = []
    live_exps: list[int] = []
    for base, e in zip(bases, exponents):
        e %= order
        if e:
            live_bases.append(base)
            live_exps.append(e)
    if not live_bases:
        return group.identity()

    bits = max(e.bit_length() for e in live_exps)
    kernel = group.multiexp_kernel()
    neg_muls = kernel.neg_muls
    signed_buckets = getattr(kernel, "signed_buckets", True)
    if algorithm is None:
        algorithm = select_algorithm(
            len(live_bases),
            bits,
            native_pow=kernel.native_pow,
            op_overhead=kernel.op_overhead,
            neg_muls=neg_muls,
            pow_muls=getattr(kernel, "pow_muls", None),
            signed_buckets=signed_buckets,
        )

    if algorithm == "naive":
        return _naive(group, live_bases, live_exps)
    if algorithm == "pippenger":
        algorithm = (
            _pippenger_variant(len(live_bases), bits, neg_muls)[0]
            if signed_buckets
            else "pippenger-unsigned"
        )
    raw_bases = [kernel.to_raw(base) for base in live_bases]
    if algorithm == "straus":
        raw = _straus(kernel, raw_bases, live_exps, _straus_window(bits))
    elif algorithm == "pippenger-signed":
        raw = _pippenger_signed(kernel, raw_bases, live_exps, bits)
    else:
        raw = _pippenger(kernel, raw_bases, live_exps, bits)
    return kernel.from_raw(raw)


# ---------------------------------------------------------------------------
# Several exact powers of one base
# ---------------------------------------------------------------------------

# Digit width of the shared chain.  Per exponent the walk costs bits/w
# bucket hits plus a 2·2^(w−1) fold: 80 multiplications at w = 4 on a
# 256-bit order, 93 at w = 3, 83 at w = 5.
_SHARED_CHAIN_WINDOW = 4


def shared_base_powers(
    base: GroupElement, exponents: Sequence[int]
) -> list[GroupElement]:
    """``[base ** e for e in exponents]``, exactly, on one squaring chain.

    A Σ-protocol verifier raises one statement to several challenges
    (``c^e0`` and ``c^e1`` in the Σ-OR check).  Independent ladders pay the
    ≈ ``bits`` doublings once per exponent; here they are paid once per
    *base*: the chain ``base^(2^(w·j))`` is walked right to left, each
    exponent files the current power into the Yao bucket of its signed
    2^w-ary digit (negative digits file the negated power, so 2^(w−1)
    buckets suffice), and one running-sum fold per exponent finishes it —
    ≈ ``bits`` squarings + k·(bits/w + 2^w) multiplications for k
    exponents instead of k·(bits + bits/w + 2^w).  Nothing is random and
    nothing is weighted: every output is the same group element ``**``
    returns.

    The chain runs on the kernel's raw representation and is taken only
    where a single power is itself a Python ladder (``native_pow`` False:
    the curve backends).  The Schnorr integer groups keep CPython's C
    ``pow`` per exponent — a Python-level chain over ints is ~3× slower
    than two C ladders there.
    """
    group = base.group
    kernel = group.multiexp_kernel()
    if kernel.native_pow:
        return [base**e for e in exponents]
    window = _SHARED_CHAIN_WINDOW
    full = 1 << window
    half = full >> 1
    mask = full - 1
    order = group.order
    # Signed digits, least significant first: d in [−2^(w−1), 2^(w−1)),
    # a digit ≥ 2^(w−1) borrows 2^w from the next window.
    recoded: list[list[int]] = []
    for e in exponents:
        e %= order
        digits = []
        while e:
            d = e & mask
            e >>= window
            if d >= half:
                d -= full
                e += 1
            digits.append(d)
        recoded.append(digits)
    mul, sqr, neg_many = kernel.mul, kernel.sqr, kernel.neg_many
    buckets: list[list] = [[None] * (half + 1) for _ in recoded]
    power = kernel.to_raw(base)
    for j, column in enumerate(zip_longest(*recoded, fillvalue=0)):
        if j:
            for _ in range(window):
                power = sqr(power)
        negated = None
        for d, held in zip(column, buckets):
            if d > 0:
                entry = power
            elif d:
                if negated is None:
                    negated = neg_many([power])[0]
                entry = negated
                d = -d
            else:
                continue
            held[d] = entry if held[d] is None else mul(held[d], entry)
    out = []
    for held in buckets:
        raw = _fold_buckets(mul, held, half)
        out.append(kernel.from_raw(kernel.identity_raw if raw is None else raw))
    return out


# ---------------------------------------------------------------------------
# Fixed-base comb tables
# ---------------------------------------------------------------------------


class FixedBaseTable:
    """Precomputed powers of a fixed base for repeated exponentiation.

    ΠBin exponentiates the same two generators (g, h) thousands of times
    (once per private coin); a radix-2^w comb table amortizes that.
    """

    def __init__(self, base: GroupElement, *, window: int = 6) -> None:
        if window < 1 or window > 16:
            raise ParameterError("window out of range")
        self._group = base.group
        self._window = window
        order_bits = self._group.order.bit_length()
        self._nwindows = (order_bits + window - 1) // window
        self._tables: list[list[GroupElement]] = []
        self._raw_tables: list[list] | None = None
        self._raw_kernel = None
        current = base
        for _ in range(self._nwindows):
            row = [self._group.identity()]
            for _ in range(1, 1 << window):
                row.append(row[-1] * current)
            self._tables.append(row)
            current = row[-1] * current  # current ** (2^window)

    @property
    def base(self) -> GroupElement:
        return self._tables[0][1]

    @property
    def window(self) -> int:
        return self._window

    @property
    def nwindows(self) -> int:
        return self._nwindows

    def raw_tables(self, kernel) -> list[list]:
        """The comb rows converted once to ``kernel``-raw values, so the
        walk never constructs an intermediate ``GroupElement``."""
        if self._raw_tables is None or self._raw_kernel is not kernel:
            self._raw_tables = [
                [kernel.to_raw(entry) for entry in row] for row in self._tables
            ]
            self._raw_kernel = kernel
        return self._raw_tables

    def power(self, exponent: int) -> GroupElement:
        """base ** exponent using only table lookups and multiplications."""
        kernel = self._group.multiexp_kernel()
        return kernel.from_raw(self.power_raw(kernel, exponent))

    def power_raw(self, kernel, exponent: int):
        """base ** exponent as a kernel-raw value (no per-window objects).

        The whole walk stays in the kernel's raw representation (ints for
        Schnorr, extended coordinates for ristretto255); only the
        caller converts back, so chained fixed-base products cost one
        normalization total.
        """
        return _comb_walk(kernel, self, self, (exponent,), (0,))[0]


def _comb_walk(
    kernel,
    table_a: FixedBaseTable,
    table_b: FixedBaseTable,
    eas: Sequence[int],
    ebs: Sequence[int],
) -> list:
    """Kernel-raw ``a^ea · b^eb`` for every exponent pair: the one digit loop.

    Every fixed-base operation is this walk — a single power is the pair
    with a zero second exponent.  The a- and b-digit lookups of one window
    interleave into a single raw accumulation, so a pair costs barely more
    than one fixed-base power and far less than two generic
    exponentiations; zero digits cost a mask and a branch.  The tables
    must share one group and one geometry (checked by the public callers).
    """
    rows_a = table_a.raw_tables(kernel)
    rows_b = table_b.raw_tables(kernel)
    mul = kernel.mul
    identity = kernel.identity_raw
    window = table_a.window
    mask = (1 << window) - 1
    order = table_a._group.order
    out = []
    for ea, eb in zip(eas, ebs):
        ea %= order
        eb %= order
        acc = None
        for row_a, row_b in zip(rows_a, rows_b):
            digit = ea & mask
            if digit:
                acc = row_a[digit] if acc is None else mul(acc, row_a[digit])
            digit = eb & mask
            if digit:
                acc = row_b[digit] if acc is None else mul(acc, row_b[digit])
            ea >>= window
            eb >>= window
        out.append(identity if acc is None else acc)
    return out


def dual_power(
    table_a: FixedBaseTable, ea: int, table_b: FixedBaseTable, eb: int
) -> GroupElement:
    """``a ** ea * b ** eb`` over two fixed-base comb tables, in one walk.

    This is the shape of every Pedersen operation — ``Com(x, r) = g^x h^r``
    — and of the folded generator terms in Σ-batch verification.
    """
    if table_a._group is not table_b._group:
        raise ParameterError("dual_power requires tables over one group")
    if table_a.window != table_b.window or table_a.nwindows != table_b.nwindows:
        raise ParameterError("dual_power requires tables with matching geometry")
    kernel = table_a._group.multiexp_kernel()
    return kernel.from_raw(_comb_walk(kernel, table_a, table_b, (ea,), (eb,))[0])


class CombPair:
    """Two fixed bases behind comb tables of one geometry: what
    :meth:`Group.fixed_base_pair` returns for the Python kernels.

    Built once per ``(group, h_label)`` and shared by every commit, proof
    and batch-verify call on those parameters (see
    :func:`repro.crypto.pedersen._shared_bases`); the raw rows are filled
    here so a published pair is never written again.
    """

    __slots__ = ("tables", "_kernel")

    def __init__(self, a: GroupElement, b: GroupElement) -> None:
        if a.group is not b.group:
            raise ParameterError("a fixed-base pair lives in one group")
        self._kernel = a.group.multiexp_kernel()
        self.tables = (FixedBaseTable(a), FixedBaseTable(b))
        for table in self.tables:
            table.raw_tables(self._kernel)

    def dual_many(self, eas: Sequence[int], ebs: Sequence[int]) -> list[GroupElement]:
        """``[a^x · b^y for x, y in zip(eas, ebs)]``, one walk each."""
        from_raw = self._kernel.from_raw
        return [from_raw(raw) for raw in _comb_walk(self._kernel, *self.tables, eas, ebs)]
