"""Public parameters for ΠBin (Line 1 of Figure 2).

``Setup(1^κ)`` fixes: the prime-order group Gq (which determines the
commitment, message and randomness spaces C_pp = Gq, M_pp = R_pp = Z_q),
the Pedersen generators (g, h), the privacy parameters (ε, δ) and the
derived coin count nb per Lemma 2.1, the number of provers K and the
input dimension M.

All parties must agree on pp; :meth:`PublicParams.fingerprint` is a digest
bound into every Fiat–Shamir transcript so proofs cannot migrate between
parameter sets.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.crypto.group import Group
from repro.crypto.pedersen import PedersenParams
from repro.crypto.schnorr_group import NAMED_GROUPS, SchnorrGroup
from repro.dp.binomial import coins_for_privacy, epsilon_for_coins
from repro.errors import ParameterError

__all__ = ["PublicParams", "setup"]


@dataclass(frozen=True)
class PublicParams:
    """Agreed-upon public parameters for one run of ΠBin."""

    pedersen: PedersenParams
    epsilon: float
    delta: float
    nb: int
    num_provers: int
    dimension: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if not 0 < self.delta < 1:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta!r}")
        if self.num_provers < 1:
            raise ParameterError("need at least one prover (K >= 1)")
        if self.dimension < 1:
            raise ParameterError("dimension must be at least 1")
        if self.nb < 1:
            raise ParameterError("nb must be positive")

    @property
    def group(self) -> Group:
        return self.pedersen.group

    @property
    def q(self) -> int:
        return self.pedersen.q

    @property
    def noise_mean(self) -> float:
        """Mean of the total added noise per coordinate: K · nb / 2.

        Public, so analysts debias releases by subtracting it.
        """
        return self.num_provers * self.nb / 2.0

    def fingerprint(self) -> bytes:
        """Digest of pp, bound into every transcript."""
        payload = b"|".join(
            [
                b"repro.params.v1",
                self.pedersen.transcript_bytes(),
                f"{self.epsilon:.12g}".encode(),
                f"{self.delta:.12g}".encode(),
                str(self.nb).encode(),
                str(self.num_provers).encode(),
                str(self.dimension).encode(),
            ]
        )
        return hashlib.sha256(payload).digest()


def _resolve_group(group: Group | str) -> Group:
    """The ``Group`` for a name; a ``Group`` object is returned as it is.

    The one place that knows ristretto255 has two implementations: the
    name resolves to libsodium's when this host can load it and it passes
    its known-answer self-test (decided once per process, on the first
    resolve — nothing is opened before), else to the pure-Python
    reference.  Both produce the same bytes everywhere, so which one runs
    is a property of the host, not a setting; passing
    ``RistrettoGroup.instance()`` explicitly pins the reference.
    """
    if isinstance(group, Group):
        return group
    if group == "ristretto255":
        from repro.crypto.ristretto import RistrettoGroup
        from repro.crypto.sodium import SodiumRistrettoGroup

        return SodiumRistrettoGroup.instance() or RistrettoGroup.instance()
    if group not in NAMED_GROUPS:
        raise ParameterError(
            f"unknown group {group!r}; options: {sorted(['ristretto255', *NAMED_GROUPS])}"
        )
    return SchnorrGroup.named(group)


def setup(
    epsilon: float,
    delta: float,
    *,
    num_provers: int = 1,
    dimension: int = 1,
    group: Group | str = "modp-2048",
    nb_override: int | None = None,
    round_to_power_of_two: bool = False,
) -> PublicParams:
    """Construct agreed public parameters.

    ``nb`` is derived from (ε, δ) via Lemma 2.1 unless ``nb_override`` is
    given (used by benchmarks to reproduce the paper's stated workload
    sizes; the effective ε for an override is reported by
    :func:`repro.dp.binomial.epsilon_for_coins`).
    """
    resolved = _resolve_group(group)
    if nb_override is not None:
        if nb_override < 1:
            raise ParameterError("nb_override must be positive")
        nb = nb_override
        effective_epsilon = epsilon_for_coins(max(nb, 31), delta)
    else:
        nb = coins_for_privacy(epsilon, delta, round_to_power_of_two=round_to_power_of_two)
        effective_epsilon = epsilon
    return PublicParams(
        pedersen=PedersenParams(resolved),
        epsilon=effective_epsilon,
        delta=delta,
        nb=nb,
        num_provers=num_provers,
        dimension=dimension,
    )
