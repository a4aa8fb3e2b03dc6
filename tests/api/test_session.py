"""Session end-to-end: every query shape, both deployment models.

Includes the acceptance scenario: a ComposedQuery (count + histogram +
bounded sum) runs end to end in K = 1 and K = 2 with accountant-tracked
budgets.
"""

import pytest

from repro.api import (
    BoundedSumQuery,
    ComposedQuery,
    CountQuery,
    HistogramQuery,
    Session,
)
from repro.core.messages import ClientStatus
from repro.dp.accountant import PrivacyAccountant
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"
NB = 8


class TestSimpleQueries:
    @pytest.mark.parametrize("k", [1, 2])
    def test_count(self, k):
        session = Session(
            CountQuery(1.0, 2**-10), num_provers=k, group=GROUP,
            nb_override=NB, rng=SeededRNG(f"count-{k}"),
        )
        bits = [1, 0, 1, 1, 0, 1]
        session.submit(bits)
        result = session.release()
        assert result.accepted
        count = result.results[0]
        # Estimate is debiased: raw − K·nb/2; noise spans ±K·nb/2.
        assert abs(count.estimate - sum(bits)) <= k * NB / 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_histogram(self, k):
        session = Session(
            HistogramQuery(bins=3, epsilon=1.0, delta=2**-10),
            num_provers=k, group=GROUP, nb_override=NB,
            rng=SeededRNG(f"hist-{k}"),
        )
        session.submit([0, 0, 0, 1, 2, 0])
        result = session.release()
        assert result.accepted
        histogram = result.results[0]
        assert len(histogram.counts) == 3
        assert histogram.argmax() == 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_bounded_sum(self, k):
        query = BoundedSumQuery(value_bits=4, epsilon=1.0, delta=2**-10)
        session = Session(
            query, num_provers=k, group=GROUP, nb_override=NB,
            rng=SeededRNG(f"bsum-{k}"),
        )
        values = [3, 7, 12, 0, 15]
        session.submit(values)
        result = session.release()
        assert result.accepted
        total = result.results[0]
        # Noise is Δ·Binomial(K·nb, 1/2), debiased by Δ·K·nb/2.
        max_dev = query.sensitivity * k * NB / 2
        assert abs(total.estimate - sum(values)) <= max_dev
        # Raw minus true sum is Δ-divisible (the noise is Δ-scaled).
        assert (total.release.raw[0] - sum(values)) % query.sensitivity == 0

    def test_invalid_client_named_not_fatal(self):
        from repro.core.client import NonBinaryClient

        session = Session(
            CountQuery(1.0, 2**-10), group=GROUP, nb_override=NB,
            rng=SeededRNG("bad-client"),
        )
        session.submit([1, 0])
        session.submit([NonBinaryClient("evil", [5], SeededRNG("evil"))])
        result = session.release()
        assert result.accepted  # the run stands; the cheater is excluded
        audit = result.results[0].audit
        assert audit.clients["evil"] is ClientStatus.INVALID_PROOF
        assert "evil" not in audit.valid_clients()


class TestComposedSessions:
    @pytest.mark.parametrize("k", [1, 2])
    def test_composed_count_histogram_sum(self, k):
        """The acceptance scenario: three-query composition, both models."""
        query = ComposedQuery([
            CountQuery(epsilon=0.5, delta=2**-11),
            HistogramQuery(bins=4, epsilon=0.25, delta=2**-12),
            BoundedSumQuery(value_bits=4, epsilon=0.5, delta=2**-11),
        ])
        session = Session(
            query, num_provers=k, group=GROUP, nb_override=NB,
            rng=SeededRNG(f"composed-{k}"),
        )
        session.submit([(1, 0, 13), (0, 2, 5), (1, 0, 9), (1, 3, 15)])
        result = session.release()
        assert result.accepted
        assert len(result.results) == 3
        count, histogram, total = result.results
        assert abs(count.estimate - 3) <= k * NB / 2
        assert len(histogram.counts) == 4
        assert abs(total.estimate - 42) <= 15 * k * NB / 2

        # Accountant tracked each query's honest end-to-end budget.
        ledger = session.accountant.ledger()
        assert [row[0] for row in ledger] == [
            "count", "histogram[4]", "bounded-sum[4b]"
        ]
        assert ledger[1][1] == pytest.approx(0.5)  # histogram charges 2ε
        eps_total = sum(eps for _, eps, _ in result.accountant.ledger())
        assert eps_total == pytest.approx(0.5 + 0.5 + 0.5)

    def test_shared_accountant_accumulates_across_sessions(self):
        accountant = PrivacyAccountant()
        for seed in ("a", "b"):
            session = Session(
                CountQuery(0.25, 2**-12), group=GROUP, nb_override=NB,
                rng=SeededRNG(seed), accountant=accountant,
            )
            session.submit([1, 0])
            session.release()
        assert sum(eps for _, eps, _ in accountant.ledger()) == pytest.approx(0.5)

    def test_record_arity_enforced(self):
        query = ComposedQuery([CountQuery(1.0, 0.1), CountQuery(1.0, 0.1)])
        session = Session(query, group=GROUP, nb_override=NB, rng=SeededRNG("ar"))
        with pytest.raises(ParameterError):
            session.submit([(1,)])

    def test_single_query_release_accessor(self):
        session = Session(
            CountQuery(1.0, 2**-10), group=GROUP, nb_override=NB,
            rng=SeededRNG("acc"),
        )
        session.submit([1])
        result = session.release()
        assert result.release is result.results[0].release
        composed = ComposedQuery([CountQuery(1.0, 0.1), CountQuery(1.0, 0.1)])
        s2 = Session(composed, group=GROUP, nb_override=NB, rng=SeededRNG("acc2"))
        s2.submit([(1, 1)])
        r2 = s2.release()
        with pytest.raises(ParameterError):
            _ = r2.release
