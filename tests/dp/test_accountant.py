"""Privacy accounting: the per-release ledger."""

import pytest

from repro.dp.accountant import PrivacyAccountant
from repro.errors import ParameterError


class TestAccountant:
    def test_charges_are_recorded_in_order(self):
        acc = PrivacyAccountant()
        acc.charge(1.0, 1e-6, label="a")
        acc.charge(0.5, 1e-6)
        assert acc.ledger() == [("a", 1.0, 1e-6), ("", 0.5, 1e-6)]

    def test_empty(self):
        assert PrivacyAccountant().ledger() == []

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            PrivacyAccountant().charge(-1.0, 0.0)
