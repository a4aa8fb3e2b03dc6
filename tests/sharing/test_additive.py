"""Additive secret sharing: reconstruction, linearity, hiding shape."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.sharing.additive import share_additive
from repro.utils.rng import SeededRNG

Q = 2**61 - 1


class TestShareReconstruct:
    @given(
        value=st.integers(min_value=0, max_value=Q - 1),
        parties=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_roundtrip(self, value, parties):
        shares = share_additive(value, parties, Q, SeededRNG(f"{value}-{parties}"))
        assert len(shares) == parties
        assert sum(shares) % Q == value

    def test_single_party_is_plaintext(self):
        assert share_additive(42, 1, Q, SeededRNG("s")) == [42]

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            share_additive(1, 0, Q)
        with pytest.raises(ParameterError):
            share_additive(1, 2, 1)

    def test_linearity(self):
        """Sharing is linear: share-wise sums reconstruct to the value sum."""
        rng = SeededRNG("lin")
        a = share_additive(10, 3, Q, rng)
        b = share_additive(32, 3, Q, rng)
        summed = [(x + y) % Q for x, y in zip(a, b)]
        assert sum(summed) % Q == 42

    def test_single_share_marginal_spread(self):
        """Any one share should be spread over the field (hiding): sharing
        the SAME value many times yields distinct first shares."""
        rng = SeededRNG("spread")
        firsts = {share_additive(7, 2, Q, rng)[0] for _ in range(50)}
        assert len(firsts) == 50
