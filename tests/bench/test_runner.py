"""The experiment harness: every driver returns well-formed rows."""

import pytest

from repro.bench import EXPERIMENTS, format_table
from repro.bench.runner import (
    run_attacks,
    run_err,
    run_fig3,
    run_fig4,
    run_micro,
    run_separation,
    run_table1,
    run_table2,
)


class TestTable1:
    def test_rows_and_columns(self):
        rows = run_table1(group="p64-sim", nb=16, n=500)
        assert len(rows) == 3  # paper / measured / extrapolated
        for col in ("sigma_proof_ms", "sigma_verify_ms", "morra_ms", "aggregation_ms", "check_ms"):
            assert all(col in row for row in rows)
        measured = rows[1]
        assert all(measured[c] >= 0 for c in measured if c != "stage")

    def test_sigma_dominates_morra(self):
        """The paper's qualitative finding: Σ-proof work dwarfs Morra."""
        rows = run_table1(group="p64-sim", nb=32, n=100)
        measured = rows[1]
        assert measured["sigma_proof_ms"] > measured["morra_ms"]


class TestFig3:
    def test_nb_scales_inverse_square(self):
        rows = run_fig3(epsilons=(1.0, 2.0), backends=("p64-sim",), sample=8)
        by_eps = {r["epsilon"]: r for r in rows}
        ratio = by_eps[1.0]["nb"] / by_eps[2.0]["nb"]
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_total_time_decreasing_in_epsilon(self):
        rows = run_fig3(epsilons=(0.5, 1.0, 2.0), backends=("p64-sim",), sample=8)
        times = [r["prove_total_s"] for r in rows]
        assert times == sorted(times, reverse=True)


class TestFig4:
    def test_sigma_slower_than_sketch(self):
        rows = run_fig4(dimensions=(1, 4), group="p64-sim")
        for row in rows:
            assert row["sigma_prove_ms"] + row["sigma_verify_ms"] > row["sketch_ms"]

    def test_cost_grows_with_dimension(self):
        rows = run_fig4(dimensions=(1, 8), group="p64-sim")
        assert rows[1]["sigma_prove_ms"] > rows[0]["sigma_prove_ms"]


class TestTable2:
    def test_our_row_fully_checked(self):
        rows = run_table2(validate=False)
        ours = next(r for r in rows if r["protocol"].startswith("Our work"))
        assert ours["active"] and ours["central_dp"] and ours["auditable"] and ours["zero_leakage"]

    def test_live_validation(self):
        rows = run_table2(validate=True)
        prio = next(r for r in rows if r["protocol"].startswith("PRIO"))
        ours = next(r for r in rows if r["protocol"].startswith("Our work"))
        assert prio["validated"] == "attack succeeded silently"
        assert ours["validated"] == "cheaters detected+named"


class TestOtherDrivers:
    def test_micro_rows(self):
        rows = run_micro(trials=3)
        names = [r["backend"] for r in rows]
        assert names[:2] == ["modp-2048", "ristretto255 (pure Python)"]
        assert names[-1] == "ratio ec/modp"
        # One more ristretto255 row exactly when the name resolves to a
        # native backend here; one row says which backend sessions run on.
        assert len(rows) in (3, 4) and all("ristretto255 (" in n for n in names[1:-1])
        assert [bool(r["note"]) for r in rows[1:-1]] == [len(rows) == 3] + [True] * (len(rows) - 3)
        assert all(r["measured_us"] > 0 for r in rows)
        # Note: in pure Python the EC/modp ordering inverts vs the paper
        # (see run_micro docstring); we assert only well-formedness here.
        assert rows[-1]["paper_us"] == pytest.approx(328.0 / 35.0)

    def test_err_rows(self):
        rows = run_err(epsilons=(1.0,), ns=(100,), trials=5)
        assert len(rows) == 3
        assert all(r["err"] >= 0 for r in rows)

    def test_attacks_rows(self):
        rows = run_attacks()
        assert len(rows) == 6
        pibin_rows = [r for r in rows if r["system"] == "pibin"]
        assert all(r["detected"] for r in pibin_rows)

    def test_separation_rows(self):
        rows = run_separation()
        assert all(r["succeeded"] for r in rows)


class TestFormatting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], title="T")
        assert "T" in text and "a" in text and "2.50" in text
        # A summary row (the streaming experiment's totals) adds columns
        # the first row does not have; they are printed, in first-seen order.
        text = format_table([{"a": 1, "b": 2}, {"a": 3, "total_ratio": 0.5}])
        header, rule, first, summary = text.splitlines()
        assert header.split() == ["a", "b", "total_ratio"]
        assert first.split() == ["1", "2"]
        assert summary.split() == ["3", "0.50"]
        assert summary.index("0.50") == header.index("total_ratio")

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig3", "fig4", "table2", "micro", "err", "comm",
            "attacks", "separation", "multiexp", "streaming",
        }

    def test_run_multiexp_rows(self, tmp_path, monkeypatch):
        from repro.bench.runner import run_multiexp

        monkeypatch.chdir(tmp_path)
        rows = run_multiexp(sizes=(1, 4), wide_sizes=(2,), signed_sizes=(64,))
        crossover = [r for r in rows if "kind" not in r]
        assert {r["n"] for r in crossover} == {1, 2, 4}
        assert all(r["naive_ms"] > 0 for r in crossover)
        assert all(r["bits"] > 0 for r in crossover)
        assert all(
            r["selected"] in ("naive", "straus", "pippenger") for r in crossover
        )
        # Extra row kinds: wNAF width sweep + bucket-variant duel.
        windows = [r for r in rows if r.get("kind") == "straus-window"]
        assert {r["window"] for r in windows} == {3, 4, 5, 6}
        variants = [r for r in rows if r.get("kind") == "pippenger-variants"]
        assert variants and all(
            r["signed_ms"] > 0 and r["unsigned_ms"] > 0 for r in variants
        )
        assert {r["group"] for r in variants} == {"p128-sim", "ristretto255"}
        # The rows are the whole output: nothing lands in the working directory.
        assert list(tmp_path.iterdir()) == []

    def test_run_streaming_rows(self, tmp_path, monkeypatch):
        from repro.bench.runner import run_streaming

        monkeypatch.chdir(tmp_path)
        rows = run_streaming(nb=256, n_clients=6)
        streamed, buffered, ratio = rows
        assert (streamed["mode"], streamed["chunk"]) == ("streamed", 64)
        assert (buffered["mode"], buffered["chunk"]) == ("buffered", 256)
        for row in (streamed, buffered):
            assert row["nb"] == 256 and row["proofs_per_s"] > 0
            assert row["peak_mem_mb"] > 0
        # Ratios live under their own keys, never in the seconds/MB columns.
        assert ratio["total_ratio"] > 0 and ratio["peak_mem_ratio"] > 0
        assert "total_s" not in ratio and "peak_mem_mb" not in ratio
        assert list(tmp_path.iterdir()) == []

    def test_comm_rows(self):
        from repro.bench.runner import run_comm

        rows = run_comm(group="p64-sim", dimensions=(1, 4))
        assert all(r["bytes"] > 0 for r in rows)
        sigma4 = next(
            r for r in rows if r["M"] == 4 and "sigma" in r["item"]
        )
        sketch4 = next(
            r for r in rows if r["M"] == 4 and "sketch" in r["item"]
        )
        assert sigma4["bytes"] > sketch4["bytes"]  # the bandwidth premium
