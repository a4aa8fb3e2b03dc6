"""Privacy accounting across multiple releases.

The MPC instantiation of ΠBin adds K independent copies of Binomial noise
(one per prover — necessary because up to K-1 provers may collude and
contribute no noise, Section 4 / Ben-Or et al.), and histogram queries
release M coordinates.  The accountant records each release's (ε, δ)
charge so examples and tests can state end-to-end guarantees honestly;
under basic composition the total is the column sums of its ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParameterError

__all__ = ["PrivacyAccountant"]


@dataclass
class PrivacyAccountant:
    """Running ledger of (ε, δ) expenditures."""

    spent: list[tuple[float, float]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def charge(self, epsilon: float, delta: float, *, label: str = "") -> None:
        if epsilon < 0 or delta < 0:
            raise ParameterError("budgets must be non-negative")
        self.spent.append((epsilon, delta))
        self.labels.append(label)

    def ledger(self) -> list[tuple[str, float, float]]:
        """Per-release charges as (label, ε, δ) rows — what a Session's
        queries actually drew from the budget."""
        return [
            (label, eps, delta)
            for label, (eps, delta) in zip(self.labels, self.spent)
        ]
