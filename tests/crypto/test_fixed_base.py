"""Fixed-base pairs and comb tables: cross-backend equivalence with ``**``.

The Pedersen generators g/h are exponentiated millions of times per run;
``PedersenParams`` caches the group's fixed-base pair for both and every
hot path (commit, Σ-OR verify, batch-verify generator folds) goes
through it — byte-digit residue rows on the narrow Schnorr groups, comb
tables on the Python curve kernels.  These tests pin the pair, and comb
tables built for the same generators on every backend, to the semantics
of naive exponentiation.
"""

import pytest

from repro.crypto.multiexp import FixedBaseTable, dual_power
from repro.crypto.pedersen import PedersenParams
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG


def _backends():
    from repro.crypto.ristretto import RistrettoGroup
    from repro.crypto.schnorr_group import SchnorrGroup

    return [
        SchnorrGroup.named("p64-sim"),
        SchnorrGroup.named("p128-sim"),
        SchnorrGroup.named("p256-sim"),
        SchnorrGroup.named("modp-2048"),
        RistrettoGroup.instance(),
    ]


@pytest.fixture(
    scope="module", params=range(5), ids=["p64", "p128", "p256-sim", "modp-2048", "ristretto"]
)
def pedersen(request):
    return PedersenParams(_backends()[request.param])


@pytest.fixture(scope="module")
def comb_tables(pedersen):
    """Comb tables for (g, h) on this backend: the pair's own where it is a
    ``CombPair``, built here where the group answers with residue rows."""
    tables = getattr(pedersen._fixed, "tables", None)
    return tables or (FixedBaseTable(pedersen.g), FixedBaseTable(pedersen.h))


def _exponents(pedersen, n=8):
    rng = SeededRNG(f"fixed-base-{pedersen.group.name}")
    edge = [0, 1, 2, pedersen.q - 1, pedersen.q // 2]
    return edge + [rng.field_element(pedersen.q) for _ in range(n)]


class TestFixedBaseTables:
    def test_pow_g_matches_naive(self, pedersen):
        for e in _exponents(pedersen):
            assert pedersen.pow_g(e) == pedersen.g ** e

    def test_pow_h_matches_naive(self, pedersen):
        for e in _exponents(pedersen):
            assert pedersen.pow_h(e) == pedersen.h ** e

    def test_dual_power_matches_naive(self, pedersen, comb_tables):
        exps = _exponents(pedersen)
        g_table, h_table = comb_tables
        for a, b in zip(exps, reversed(exps)):
            expected = (pedersen.g ** a) * (pedersen.h ** b)
            assert dual_power(g_table, a, h_table, b) == expected

    def test_commit_is_fused_dual_power(self, pedersen):
        rng = SeededRNG("commit")
        for _ in range(5):
            x = rng.field_element(pedersen.q)
            r = rng.field_element(pedersen.q)
            assert pedersen.commit(x, r).element == (pedersen.g ** x) * (pedersen.h ** r)

    def test_negative_exponents_reduced(self, pedersen):
        assert pedersen.pow_g(-1) == pedersen.g ** (pedersen.q - 1)
        assert pedersen.commit(-2, -3).element == pedersen.commit(
            pedersen.q - 2, pedersen.q - 3
        ).element

    def test_power_raw_roundtrip(self, pedersen, comb_tables):
        kernel = pedersen.group.multiexp_kernel()
        table = comb_tables[0]
        for e in _exponents(pedersen, n=3):
            assert kernel.from_raw(table.power_raw(kernel, e)) == pedersen.g ** e


class TestDualPowerValidation:
    def test_mismatched_groups_rejected(self):
        from repro.crypto.schnorr_group import SchnorrGroup

        a = FixedBaseTable(SchnorrGroup.named("p64-sim").generator())
        b = FixedBaseTable(SchnorrGroup.named("p128-sim").generator())
        with pytest.raises(ParameterError):
            dual_power(a, 1, b, 1)

    def test_mismatched_geometry_rejected(self):
        from repro.crypto.schnorr_group import SchnorrGroup

        group = SchnorrGroup.named("p64-sim")
        wide = FixedBaseTable(group.generator(), window=8)
        narrow = FixedBaseTable(group.generator(), window=4)
        with pytest.raises(ParameterError):
            dual_power(wide, 1, narrow, 1)


def _adhoc_group(name="p128-sim"):
    """A fresh, unregistered group object (``SchnorrGroup.named`` is cached)."""
    from repro.crypto.schnorr_group import NAMED_GROUPS, SchnorrGroup

    return SchnorrGroup(NAMED_GROUPS[name], name=f"adhoc-{name}", check=False)


class TestSharedTables:
    """One comb table pair per (group object, h_label) per process — the
    memo every session, decoded params and fleet peer thread relies on
    (rebuilding per ``PedersenParams`` was ~10% of a ristretto255 session)."""

    def test_params_on_one_group_share_tables(self):
        group = _adhoc_group()
        a, b = PedersenParams(group), PedersenParams(group)
        assert a._fixed is b._fixed
        assert a.h is b.h
        assert a._fixed.dual_many([1, 0], [0, 1]) == [a.g, a.h]

    def test_other_label_or_group_object_does_not_share(self):
        group = _adhoc_group()
        a = PedersenParams(group)
        relabelled = PedersenParams(group, h_label=b"another.h")
        assert relabelled.h != a.h
        assert relabelled._fixed is not a._fixed
        assert relabelled._fixed.dual_many([0], [1]) == [relabelled.h]
        twin = PedersenParams(_adhoc_group())
        assert twin._fixed is not a._fixed
        assert twin.h.to_bytes() == a.h.to_bytes()

    def test_degenerate_label_still_rejected_and_not_memoised(self, monkeypatch):
        group = _adhoc_group("p64-sim")
        monkeypatch.setattr(group, "hash_to_group", lambda label: group.generator())
        for _ in range(2):
            with pytest.raises(ParameterError):
                PedersenParams(group)

    def test_adhoc_group_is_not_pinned_by_its_tables(self):
        import gc
        import weakref

        group = _adhoc_group("p64-sim")
        PedersenParams(group).commit(1, 2)
        probe = weakref.ref(group)
        del group
        gc.collect()
        assert probe() is None

    def test_concurrent_construction_publishes_one_complete_entry(self):
        """8 threads race to build the tables of one unseen group: each gets
        tables that commit correctly, and all end up on the one published
        pair (a half-built or torn entry would break either)."""
        import sys
        import threading

        group = _adhoc_group()
        g = group.generator()
        start = threading.Barrier(8)
        results, errors = [], []

        def worker(i):
            try:
                start.wait(timeout=30)
                params = PedersenParams(group)
                x, r = 1000 + i, 2**100 + i
                assert params.commit(x, r).element == (g ** x) * (params.h ** r)
                assert params.commit_many([x], [r])[0].element == (g ** x) * (params.h ** r)
                results.append(params)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 8
        assert len({id(p._fixed) for p in results}) == 1
        assert PedersenParams(group)._fixed is results[0]._fixed
