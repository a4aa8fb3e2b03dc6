"""Verifiable DP histograms end to end (the election workload)."""

import pytest

from repro.api import HistogramQuery, ProtocolEngine, Session
from repro.api.session import build_engine
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver, Prover
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def make_hist(bins=3, k=2, nb=16, seed="hist"):
    return Session(
        HistogramQuery(bins, 1.0, 2**-10),
        num_provers=k, group=GROUP, nb_override=nb, rng=SeededRNG(seed),
    )


def run(session, choices):
    session.submit(choices)
    return session.release()[0]


class TestHistogram:
    def test_counts_near_truth(self):
        hist = make_hist(seed="counts")
        choices = [0] * 10 + [1] * 5 + [2] * 2
        release = run(hist, choices)
        assert release.accepted
        true = [10, 5, 2]
        for m in range(3):
            # noise per bin: sum of two Binomial(nb, 1/2) minus mean, within support
            assert abs(release.counts[m] - true[m]) <= hist.params.nb * hist.params.num_provers / 2 + 1

    def test_plurality_winner(self):
        hist = make_hist(seed="winner", nb=8)
        choices = [0] * 30 + [1] * 3 + [2] * 2  # wide margin beats noise
        release = run(hist, choices)
        assert release.argmax() == 0

    def test_invalid_choice_rejected(self):
        hist = make_hist(seed="inv")
        with pytest.raises(ParameterError):
            run(hist, [0, 5])

    def test_needs_two_bins(self):
        with pytest.raises(ParameterError):
            HistogramQuery(1, 1.0, 2**-10)

    def test_params_dimension_must_match(self):
        params = setup(1.0, 2**-10, dimension=2, group=GROUP, nb_override=16)
        with pytest.raises(ParameterError):
            build_engine(HistogramQuery(3, 1.0, 2**-10), num_provers=1, params=params)

    def test_privacy_note_mentions_composition(self):
        """A one-hot input change touches two bins, so the end-to-end
        budget the release is charged is (2ε, 2δ) by composition."""
        hist = make_hist()
        run(hist, [0, 1, 2])
        assert [row[1:] for row in hist.accountant.ledger()] == [(2 * 1.0, 2 * 2**-10)]

    def test_cheating_prover_rejects_release(self):
        params = setup(1.0, 2**-10, num_provers=2, dimension=2, group=GROUP, nb_override=12)
        provers = [
            Prover("prover-0", params, SeededRNG("p0")),
            OutputTamperingProver("prover-1", params, SeededRNG("p1"), bias=4),
        ]
        query = HistogramQuery(2, params.epsilon, params.delta)
        rng = SeededRNG("cheat")
        engine = ProtocolEngine(params, provers=provers, rng=rng)
        engine.submit_clients(
            query.make_client(f"client-{i}", choice, rng.fork(f"client-{i}"))
            for i, choice in enumerate([0, 1, 0])
        )
        assert not engine.run_release().release.accepted
