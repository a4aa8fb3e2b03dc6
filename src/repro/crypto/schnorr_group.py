"""Schnorr groups: the prime-order subgroup of quadratic residues of Z*p.

This is the paper's default backend ("we adopted Gq ⊂ Z*p based on the
finite field discrete log problem", Section 6).  For a *safe* prime
p = 2q + 1, the quadratic residues of Z*p form a cyclic subgroup of prime
order q; membership is a Jacobi-symbol check (no exponentiation), computed
by libgmp's ``mpz_jacobi`` where the host has it (:mod:`repro.crypto.gmp`,
opened at a process's first membership test) and by the pure loop
:func:`repro.utils.numth.jacobi_symbol` otherwise — same verdicts, same
exceptions, nothing to configure.

Named parameter sets (exactly the keys of ``NAMED_GROUPS``):

``modp-2048``
    RFC 3526 group 14 (a safe prime used by IKE); production strength and
    what the paper's OpenSSL implementation corresponds to.
``p256-sim``, ``p128-sim``, ``p64-sim``
    Pre-generated safe primes at reduced sizes for simulation and tests.
    Deterministically generated and re-verified by the test suite.  These
    exercise identical code paths at a fraction of the cost — useful since
    this reproduction is pure Python.
``p32-sim``
    A 32-bit toy group, small enough for a discrete-log oracle; used only
    by the Section 5 separation demo.

A variable-base power is libgmp's ``mpz_powm`` from
``_NATIVE_POWER_MIN_BITS`` of modulus up, where the host has it
(:func:`repro.crypto.gmp.power_product`, opened at the group's first
multiexp or ``**``; ≈ 10 µs against 41 µs on p128-sim, 2.4 against 25 ms
on modp-2048), and the built-in ``pow`` otherwise — the closest analogues
of the paper's OpenSSL BigNum calls, with the same results.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial
from typing import Sequence

from repro.crypto.group import Group, GroupElement
from repro.errors import EncodingError, NotOnGroupError, ParameterError
from repro.utils.numth import batch_inverse, is_probable_prime, jacobi_symbol

__all__ = ["SchnorrGroup", "SchnorrElement", "NAMED_GROUPS"]


# RFC 3526 group 14 (2048-bit MODP). Safe prime: q = (p-1)/2 is prime.
_RFC3526_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# Deterministically pre-generated safe primes (seeds "repro-<bits>"), verified
# in tests/crypto/test_schnorr_group.py::test_named_groups_are_safe_primes.
_SIM_256 = 0xF0A9168889ECF85024DEF3A19A22BF21D1DDB584A63A678414215485D31267E3
_SIM_128 = 0xD3D4A4D75F35187165961185ED721AB7
_SIM_64 = 0x8D13413B94E597C3
# 32-bit toy group: order ~2^30, small enough for a baby-step/giant-step
# discrete-log "oracle" — used ONLY by the Section 5 separation demo to
# play the role of an unbounded adversary.
_SIM_32 = 0xA4C3B403


class SchnorrElement(GroupElement):
    """Element of the quadratic-residue subgroup, stored as int in [1, p)."""

    __slots__ = ("_group", "_value")

    def __init__(self, group: "SchnorrGroup", value: int) -> None:
        self._group = group
        self._value = value

    @property
    def group(self) -> "SchnorrGroup":
        return self._group

    @property
    def value(self) -> int:
        """Underlying residue (an integer mod p)."""
        return self._value

    def combine(self, other: GroupElement) -> "SchnorrElement":
        if not isinstance(other, SchnorrElement) or other._group is not self._group:
            raise NotOnGroupError("cannot combine elements of different groups")
        return SchnorrElement(self._group, (self._value * other._value) % self._group.modulus)

    def scale(self, exponent: int) -> "SchnorrElement":
        group = self._group
        return SchnorrElement(group, group._power(self._value, exponent % group._q))

    def invert(self) -> "SchnorrElement":
        return SchnorrElement(self._group, pow(self._value, -1, self._group.modulus))

    def to_bytes(self) -> bytes:
        # A residue in [1, p) is non-negative and fits element_bytes, so
        # ``int_to_bytes``' checks could never fire here.
        return self._value.to_bytes(self._group.element_bytes, "big")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchnorrElement)
            and other._group is self._group
            and other._value == self._value
        )

    def __hash__(self) -> int:
        return hash((id(self._group), self._value))


# Widest modulus whose fixed-base pair is a ``_ResiduePair``.  A pair
# walks byte digits, so its rows hold 2·256·ceil(bits/8) residues: built
# from plain ints they cost less than the window-6 ``CombPair`` tables up
# to ≈ 400 bits (p256-sim 13 against 14 ms) and 1.6× as much at 512
# (69 against 42 ms, 2 MB), then 2.3× at 1024 bits (0.37 s, 8.4 MB) and
# 2.8× at 2048 (2.5 s, 33 MB) — which modp-2048 would pay in every
# process that builds its pair, to save 3 ms a commitment.
_RESIDUE_PAIR_MAX_BITS = 512


# Narrowest modulus whose variable-base powers run on libgmp's
# ``mpz_powm`` (:func:`repro.crypto.gmp.power_product`): the naive
# multiexp tier and ``**``.  Measured on a 2-vCPU host, CPython 3.11.
# From p128-sim up one native product beats every Python tier at every
# batch a session makes (``python -m repro multiexp``: p128-sim n = 256
# 1.4 ms against 2.6 ms buckets, 10.8 ms CPython ``pow``; the buckets draw
# level only at n ≈ 16,384, on p256-sim at ≈ 32,768), and it takes 7.7 %
# off the CPU of a p128-sim socket session (``socket-session``).  On
# p64-sim a single power is faster too (7.4 against 14.3 µs) and the
# product leads the buckets below n ≈ 1,000, but end to end the width 64
# is a trade, not a gain: over ten alternating benchmark pairs it took
# 4 % off ``stream-release``'s ``session_s`` (10 of 10) and cost it
# 0.85 MB of ``peak_rss_mb`` (libgmp mapped into an in-process session
# that otherwise never maps it, 10 of 10) and 5 % of ``setup_s``, and
# ``fleet-closed`` moved less than its spread.  So p64-sim and p32-sim
# keep CPython's ``pow``.
_NATIVE_POWER_MIN_BITS = 128


class _SchnorrKernel:
    """Raw multiexp kernel: residues as plain ints, products mod p.

    Table negations use Montgomery batch inversion (one ``pow(·, -1, p)``
    for an arbitrarily long list), so Straus' signed-digit tables cost
    three multiplications per entry instead of an inversion each.

    ``modulus`` tells :mod:`repro.crypto.multiexp` that a raw value is a
    residue mod that int, so its bucket method multiplies ints inline
    instead of calling :meth:`mul` per bucket hit.  Together with the
    fixed-base pair (:class:`_ResiduePair`, for moduli up to
    ``_RESIDUE_PAIR_MAX_BITS``) these are the residue kernels.  Measured
    on a 2-vCPU host, CPython 3.11, the two columns interleaved, best of
    15 (pairs) or 30 (buckets, at the window the cost model picks):

    ==============================  ===========  ===================
    kernel                          generic      residue
    ==============================  ===========  ===================
    p64 pair, 128 full-width pairs  12.7 µs      5.7 µs
    p128 pair                       31.6 µs      14.6 µs
    p256-sim pair                   84.5 µs      50.3 µs
    modp-2048 pair                  13.1 ms      10.2 ms after a 2.5 s,
                                                 33 MB build, so it
                                                 keeps the comb tables
    p64 multiexp, n = 384           2.75 ms      2.16 ms (list buckets)
    p128 multiexp, n = 194          4.09 ms      3.58 ms (in place)
    the same, signed digits         4.58 ms      (none: the residue
                                                 loop is unsigned,
                                                 3.83 ms that round)
    modp-2048 multiexp, n = 300     2.43 s       2.46 s (in place)
    ==============================  ===========  ===================

    The pair's width rule is ``_RESIDUE_PAIR_MAX_BITS`` (its build costs
    are beside it); the buckets' is ``multiexp._LIST_BUCKET_MAX_BITS``.

    From ``_NATIVE_POWER_MIN_BITS`` up, where the host has libgmp, the
    kernel also carries ``pow_product`` — the naive tier as one libgmp call
    — and prices it with ``pow_muls``, so the cost model picks it over
    both kernels above.  Measured with ``python -m repro multiexp`` (same
    host):

    ==============================  ============  =========  ===========
    naive tier                      CPython pow   libgmp     best Python
    ==============================  ============  =========  ===========
    p128, one power (``**``)        40 µs         10 µs      —
    p128 multiexp, n = 64           2.88 ms       0.38 ms    0.95 ms
    p128 multiexp, n = 1024         42.3 ms       5.2 ms     7.4 ms
    p256-sim multiexp, n = 256      41.6 ms       4.9 ms     10.8 ms
    modp-2048, one power            25 ms         2.4 ms     —
    modp-2048 multiexp, n = 8       234 ms        37 ms      74 ms
    p64 multiexp, n = 384 (kept     5.1 ms        0.84 ms    1.16 ms
    pure: see the width rule)
    ==============================  ============  =========  ===========
    """

    __slots__ = ("_group", "modulus", "identity_raw", "op_overhead", "pow_product", "pow_muls")

    # SchnorrElement.scale is C: CPython's ``pow``, or libgmp's ``mpz_powm``
    # from ``_NATIVE_POWER_MIN_BITS`` (then ``pow_product`` is set).
    native_pow = True
    # Negation is a modular inversion: ~3 multiplications per element
    # even via batch_inverse, which is why signed-digit Pippenger does
    # not pay on this backend (see repro.crypto.multiexp).
    neg_muls = 3.2
    # Signed digits run the generic kernel-call bucket loop; the unsigned
    # residue loop beat it by 1.1–1.2× at every size the cost model
    # priced signed digits cheaper (p64-sim n ≤ 32, p128-sim n ≤ 194).
    signed_buckets = False

    def __init__(self, group: "SchnorrGroup") -> None:
        self._group = group
        self.modulus = group.modulus
        self.identity_raw = 1
        # What a Straus table hit costs beyond its multiplication — the
        # Python bookkeeping of the kernel's only tier that still calls
        # ``mul`` per hit — relative to one multiplication, fitted so the
        # model switches tiers where the measurements against the residue
        # buckets do: naive → Straus → Pippenger at n = 8 / 13 on p128-sim
        # (measured ≈ 6 / 13–16), 4 / 24 on p256-sim (3 / ≈ 24), Straus →
        # Pippenger at 304 on modp-2048 (level at ≈ 250–300); p64-sim
        # (2.27) goes from naive straight to Pippenger at 11, where the
        # tiers are level within 1.1×.
        self.op_overhead = min(3.0, 1.5 * (128 / group.modulus.bit_length()) ** 0.6)
        # ``pow_product(raw_bases, exps)`` is the product of powers as one
        # libgmp call, where this host has it and the modulus is wide
        # enough; the naive tier and ``**`` then run through it.  Its
        # ``pow_muls`` — a power in units of the buckets' multiplication —
        # is fitted so that the model hands the batch to the buckets where
        # the two draw level: n ≈ 16,384 on p128-sim (the model switches
        # at 14,877), ≈ 32,768 on p256-sim (27,391), and past the 8,192
        # measured on modp-2048, where the product is still 1.2× ahead
        # (38,807).  ``1 + bits/10`` puts a power at 13.8, 26.6 and 205.8.
        bits = group.modulus.bit_length()
        self.pow_product = self.pow_muls = None
        if bits >= _NATIVE_POWER_MIN_BITS:
            from repro.crypto.gmp import power_product

            self.pow_product = power_product(group.modulus)
            if self.pow_product is not None:
                self.pow_muls = 1.0 + bits / 10

    @staticmethod
    def to_raw(element: "SchnorrElement") -> int:
        return element._value

    def from_raw(self, raw: int) -> "SchnorrElement":
        return SchnorrElement(self._group, raw)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def sqr(self, a: int) -> int:
        return a * a % self.modulus

    def neg_many(self, raws: list[int]) -> list[int]:
        return batch_inverse(raws, self.modulus)


class _ResiduePair:
    """``a^x · b^y`` for two fixed bases, on comb rows of plain ints.

    Row ``i`` of a base holds ``base^(d·256^i)`` for every byte value d,
    so one ``int.to_bytes`` of an exponent yields all its digits and a
    pair costs one ``acc * row_a[dx] * row_b[dy] % p`` per byte position
    — 8 on p64-sim, 16 on p128-sim — with no kernel call, no
    shift-and-mask and no digit branch (a zero digit is the entry 1).
    What :meth:`SchnorrGroup.fixed_base_pair` returns up to
    ``_RESIDUE_PAIR_MAX_BITS``; built once per ``(group, h_label)``
    (:func:`repro.crypto.pedersen._shared_bases`) and never written again.
    """

    __slots__ = ("_group", "_p", "_q", "_width", "_a", "_rows", "_b_rows")

    def __init__(self, a: SchnorrElement, b: SchnorrElement) -> None:
        group = a.group
        if b.group is not group:
            raise ParameterError("a fixed-base pair lives in one group")
        p = group.modulus
        self._group, self._p, self._q = group, p, group.order
        self._width = (group.order.bit_length() + 7) // 8
        self._a = a.value
        tables = []
        for base in (a.value, b.value):
            table = []
            for _ in range(self._width):
                row = [1, base]
                for _ in range(254):
                    row.append(row[-1] * base % p)
                table.append(row)
                base = row[-1] * base % p  # base ** 256
            tables.append(table)
        self._rows = list(zip(*tables))
        self._b_rows = tables[1]

    def dual_many(self, xs: Sequence[int], ys: Sequence[int]) -> list[SchnorrElement]:
        """``[a^x · b^y for x, y in zip(xs, ys)]``, one row walk each.

        An a-exponent of 0 or 1 — a coin's ``Com(x, r)``, a real-branch
        announcement ``Com(0, b)``, ``pow_h`` — walks the b rows alone
        from ``a^x``: the same residue at half the products.
        """
        group, p, q, width = self._group, self._p, self._q, self._width
        rows, b_rows, a = self._rows, self._b_rows, self._a
        out = []
        for x, y in zip(xs, ys):
            x %= q
            if x < 2:
                acc = a if x else 1
                for row_b, dy in zip(b_rows, (y % q).to_bytes(width, "little")):
                    acc = acc * row_b[dy] % p
            else:
                acc = 1
                for (row_a, row_b), dx, dy in zip(
                    rows, x.to_bytes(width, "little"), (y % q).to_bytes(width, "little")
                ):
                    acc = acc * row_a[dx] * row_b[dy] % p
            out.append(SchnorrElement(group, acc))
        return out


class SchnorrGroup(Group):
    """Quadratic-residue subgroup of Z*p for a safe prime p = 2q + 1."""

    def __init__(self, p: int, *, name: str, check: bool = True) -> None:
        if check:
            if not is_probable_prime(p):
                raise ParameterError("modulus is not prime")
            if not is_probable_prime((p - 1) // 2):
                raise ParameterError("modulus is not a safe prime")
        self._p = p
        self._q = (p - 1) // 2
        self._name = name
        self.element_bytes = (p.bit_length() + 7) // 8
        # g = 4 = 2^2 is always a quadratic residue and (for safe primes,
        # p > 5) generates the full order-q subgroup.
        self._g = SchnorrElement(self, 4 % p)
        self._identity = SchnorrElement(self, 1)
        self._kernel: _SchnorrKernel | None = None

    # Group interface ----------------------------------------------------

    @property
    def order(self) -> int:
        return self._q

    @property
    def modulus(self) -> int:
        """The prime p of the ambient field Z*p."""
        return self._p

    @property
    def name(self) -> str:
        return self._name

    def identity(self) -> SchnorrElement:
        return self._identity

    def generator(self) -> SchnorrElement:
        return self._g

    def hash_to_group(self, label: bytes) -> SchnorrElement:
        """Hash-to-QR: expand label to Z*p, square to land in the subgroup.

        Squaring is a 2-to-1 map from Z*p onto the quadratic residues, so
        the output discrete log relative to g is unknown to everyone —
        exactly the independence Pedersen commitments require of h.
        """
        counter = 0
        while True:
            digest = b""
            block = 0
            seed = b"repro.schnorr.h2g|" + self._name.encode() + b"|" + label
            while len(digest) < self.element_bytes + 16:
                digest += hashlib.sha512(seed + counter.to_bytes(4, "big") + block.to_bytes(4, "big")).digest()
                block += 1
            candidate = int.from_bytes(digest, "big") % self._p
            if candidate not in (0, 1, self._p - 1):
                return SchnorrElement(self, pow(candidate, 2, self._p))
            counter += 1  # pragma: no cover - astronomically unlikely

    def from_bytes(self, data: bytes) -> SchnorrElement:
        if len(data) != self.element_bytes:
            raise EncodingError(
                f"expected {self.element_bytes} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        return self.element(value)

    def element(self, value: int) -> SchnorrElement:
        """Wrap an integer, checking subgroup membership."""
        if not 1 <= value < self._p:
            raise NotOnGroupError(f"{value} outside Z*p")
        if value != 1 and self._symbol(value) != 1:
            raise NotOnGroupError("value is not a quadratic residue (not in Gq)")
        return SchnorrElement(self, value)

    def _power(self, value: int, exponent: int) -> int:
        """value^exponent mod p for 0 ≤ exponent < q — like :meth:`_symbol`,
        this method runs once per group and the instance attribute it sets
        shadows it: the kernel's one-term libgmp product where it has one
        (from ``_NATIVE_POWER_MIN_BITS``), CPython's ``pow`` otherwise."""
        product = self.multiexp_kernel().pow_product
        if product is None:
            self._power = partial(pow, mod=self._p)
        else:
            self._power = lambda v, e: product((v,), (e,))
        return self._power(value, exponent)

    def _symbol(self, value: int) -> int:
        """(value|p) — this method runs once per group, then the instance
        attribute it sets shadows it: libgmp's ``mpz_jacobi`` where the host
        has it (see :mod:`repro.crypto.gmp`), the pure loop otherwise.  Two
        threads' first tests may both decide; they decide alike."""
        from repro.crypto.gmp import jacobi_modulo

        p = self._p
        self._symbol = jacobi_modulo(p) or (lambda a: jacobi_symbol(a, p))
        return self._symbol(value)

    def multiexp_kernel(self) -> _SchnorrKernel:
        """Raw-int kernel consumed by :mod:`repro.crypto.multiexp`."""
        if self._kernel is None:
            self._kernel = _SchnorrKernel(self)
        return self._kernel

    def fixed_base_pair(self, a: GroupElement, b: GroupElement):
        """Byte-digit residue rows (:class:`_ResiduePair`) up to
        ``_RESIDUE_PAIR_MAX_BITS`` of modulus; wider groups (modp-2048)
        keep the window-6 comb tables of :meth:`Group.fixed_base_pair`."""
        if self._p.bit_length() <= _RESIDUE_PAIR_MAX_BITS:
            return _ResiduePair(a, b)
        return super().fixed_base_pair(a, b)

    # Named parameter sets ------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def named(name: str) -> "SchnorrGroup":
        """Return a cached named group ('modp-2048', 'p256-sim', ...).

        The pinned moduli are proven safe primes by the test suite, not
        again here (3 s of Miller–Rabin per process at 2048 bits).
        """
        try:
            p = NAMED_GROUPS[name]
        except KeyError:
            raise ParameterError(
                f"unknown Schnorr group {name!r}; options: {sorted(NAMED_GROUPS)}"
            ) from None
        return SchnorrGroup(p, name=name, check=False)


NAMED_GROUPS: dict[str, int] = {
    "modp-2048": _RFC3526_2048,
    "p256-sim": _SIM_256,
    "p128-sim": _SIM_128,
    "p64-sim": _SIM_64,
    "p32-sim": _SIM_32,
}
