"""Additive (K-out-of-K) secret sharing over Z_q.

``x = Σ_k ⟦x⟧_k mod q``: any K-1 shares are uniform and independent of x
(information-theoretic hiding), all K reconstruct.  This is the sharing
used by ΠBin, PRIO and Poplar: linearity makes the aggregate of shares a
share of the aggregate, which is what lets each prover compute
``X_k = Σ_i ⟦x_i⟧_k`` locally (Line 10 of Figure 2).
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.utils.rng import RNG, default_rng

__all__ = ["share_additive"]


def share_additive(value: int, parties: int, q: int, rng: RNG | None = None) -> list[int]:
    """Split ``value`` into ``parties`` uniform additive shares mod q."""
    if parties < 1:
        raise ParameterError("need at least one party")
    if q < 2:
        raise ParameterError("modulus must be at least 2")
    rng = default_rng(rng)
    shares = [rng.field_element(q) for _ in range(parties - 1)]
    last = (value - sum(shares)) % q
    shares.append(last)
    return shares
