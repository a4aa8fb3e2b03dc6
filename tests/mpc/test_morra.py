"""Π_morra (Algorithm 1): correctness, uniformity, active adversaries."""

import pytest

from repro.analysis.distributions import chi_square_uniform
from repro.errors import EarlyExit, ParameterError, ProtocolAbort
from repro.mpc.adversary import (
    AbortingMorraParticipant,
    BiasedMorraParticipant,
    EquivocatingMorraParticipant,
    StuckMorraParticipant,
)
from repro.mpc.bus import SimulatedNetwork
from repro.mpc.morra import MorraParticipant, run_morra_batch
from repro.utils.rng import SeededRNG

Q = 2**61 - 1


def honest(name, seed=None):
    return MorraParticipant(name, SeededRNG(seed or name))


class TestHonestRuns:
    def test_single_value_in_range(self):
        (value,) = run_morra_batch([honest("a"), honest("b")], Q, 1).values
        assert 0 <= value < Q

    def test_batch_shape(self):
        outcome = run_morra_batch([honest("a"), honest("b")], Q, 50)
        assert len(outcome.values) == 50
        assert all(0 <= v < Q for v in outcome.values)

    def test_three_parties(self):
        outcome = run_morra_batch([honest("a"), honest("b"), honest("c")], Q, 10)
        assert len(outcome.values) == 10

    def test_bits_unbiased(self):
        """Chi-square test on 4000 public coins."""
        bits = run_morra_batch([honest("a", "u1"), honest("b", "u2")], Q, 4000).bits()
        assert chi_square_uniform(bits) > 0.001

    def test_values_uniform_coarse(self):
        """Bucket the Z_q values into 8 ranges; expect rough uniformity."""
        outcome = run_morra_batch([honest("a", "v1"), honest("b", "v2")], Q, 2000)
        buckets = [0] * 8
        for value in outcome.values:
            buckets[value * 8 // Q] += 1
        assert max(buckets) - min(buckets) < 250

    def test_deterministic_given_seeds(self):
        one = run_morra_batch([honest("a", "s1"), honest("b", "s2")], Q, 5)
        two = run_morra_batch([honest("a", "s1"), honest("b", "s2")], Q, 5)
        assert one.values == two.values

    def test_network_traffic_recorded(self):
        net = SimulatedNetwork()
        run_morra_batch([honest("a"), honest("b")], Q, 3, network=net)
        assert sum(net.messages_sent.values()) == 4  # commit + reveal per party
        assert net.total_bytes() > 0


class TestAdversaries:
    def test_biased_participant_harmless(self):
        """One party always contributes 0 — output still uniform thanks to
        the honest party (the paper's 'as long as one participant is
        honest' claim)."""
        parties = [BiasedMorraParticipant("z", 0), honest("h", "harmless")]
        bits = run_morra_batch(parties, Q, 3000).bits()
        assert chi_square_uniform(bits) > 0.001

    def test_equivocation_detected(self):
        """Changing a value after seeing openings breaks the commitment
        check; the protocol aborts and names the cheater.  The cheater is
        'aaa' so it reveals last (reverse lexicographic order) and sees
        the honest opening first."""
        cheater = EquivocatingMorraParticipant("aaa", rng=SeededRNG("e"))
        with pytest.raises(ProtocolAbort) as err:
            run_morra_batch([cheater, honest("zzz")], Q, 4)
        assert err.value.party == "aaa"

    def test_equivocator_who_reveals_first_is_honest(self):
        """If the equivocator must reveal first (no openings observed yet),
        it behaves honestly — binding + ordering leave it no advantage."""
        cheater = EquivocatingMorraParticipant("zzz", rng=SeededRNG("e2"))
        outcome = run_morra_batch([cheater, honest("aaa")], Q, 4)
        assert len(outcome.values) == 4

    def test_abort_during_reveal(self):
        with pytest.raises(EarlyExit) as err:
            run_morra_batch([AbortingMorraParticipant("quitter"), honest("h")], Q, 2)
        assert err.value.party == "quitter"

    def test_stuck_at_sampling(self):
        with pytest.raises(EarlyExit):
            run_morra_batch([StuckMorraParticipant("stuck"), honest("h")], Q, 2)

    def test_out_of_range_reveal_detected(self):
        class OutOfRange(MorraParticipant):
            def sample_values(self, q, count):
                return [q + 5] * count  # commits to an illegal value

        with pytest.raises(ProtocolAbort):
            run_morra_batch([OutOfRange("bad", rng=SeededRNG("o")), honest("h")], Q, 2)


class TestValidation:
    def test_needs_two_parties(self):
        with pytest.raises(ParameterError):
            run_morra_batch([honest("a")], Q, 1)

    def test_positive_count(self):
        with pytest.raises(ParameterError):
            run_morra_batch([honest("a"), honest("b")], Q, 0)

    def test_unique_names(self):
        with pytest.raises(ParameterError):
            run_morra_batch([honest("a"), honest("a")], Q, 1)

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ParameterError):
            run_morra_batch([honest("a"), honest("b")], 2, 1)
