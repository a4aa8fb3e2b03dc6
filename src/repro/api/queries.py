"""Declarative queries: workloads as data.

A query describes *what* to release — the input language, the release
lanes, the privacy budget — and the :class:`repro.api.Session` engine
decides *how*: one phase-driven protocol instance per query, verified
``chunk_size`` at a time.  This is the muBench-style run-table shape (factors × sizes as
data, one engine underneath) applied to verifiable DP:

* :class:`CountQuery` — how many clients hold a 1 (ΠBin, M = 1).
* :class:`HistogramQuery` — M-bin one-hot counts (Section 4.2).
* :class:`BoundedSumQuery` — sums of k-bit values via bit-decomposition
  range proofs and Δ-scaled noise (Lemma B.1).
* :class:`ComposedQuery` — several of the above over the same client
  population, each drawing its own (ε, δ) from the session's
  :class:`~repro.dp.accountant.PrivacyAccountant`.

Every query knows its own honest end-to-end budget
(:meth:`Query.charged_budget`): a histogram release charges (2ε, 2δ)
because a one-hot input change moves two bins.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.client import Client, encode_choice
from repro.core.params import PublicParams, setup
from repro.core.plan import AggregationPlan
from repro.errors import ParameterError
from repro.utils.rng import RNG

__all__ = [
    "Query",
    "CountQuery",
    "HistogramQuery",
    "BoundedSumQuery",
    "ComposedQuery",
]


class Query(abc.ABC):
    """A self-describing verifiable-DP query."""

    epsilon: float
    delta: float

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short name used for accountant ledger rows and result display."""

    @abc.abstractmethod
    def build_params(
        self,
        *,
        num_provers: int,
        group: str,
        nb_override: int | None = None,
    ) -> PublicParams:
        """Agree public parameters for this query's protocol instance."""

    @abc.abstractmethod
    def build_plan(self) -> AggregationPlan:
        """The release-lane shape the engine executes."""

    @abc.abstractmethod
    def encode(self, value) -> list[int]:
        """Client-side encoding of one raw value into the input language L."""

    def make_client(self, name: str, value, rng: RNG) -> Client:
        """A protocol client holding ``value`` (hook for richer encodings)."""
        return Client(name, self.encode(value), rng)

    def charged_budget(self) -> tuple[float, float]:
        """The honest end-to-end (ε, δ) this release spends."""
        return self.epsilon, self.delta


@dataclass(frozen=True)
class CountQuery(Query):
    """How many clients hold a 1 (the paper's core counting query)."""

    epsilon: float
    delta: float

    @property
    def label(self) -> str:
        return "count"

    def build_params(self, *, num_provers, group, nb_override=None) -> PublicParams:
        return setup(
            self.epsilon,
            self.delta,
            num_provers=num_provers,
            dimension=1,
            group=group,
            nb_override=nb_override,
        )

    def build_plan(self) -> AggregationPlan:
        return AggregationPlan.identity(1)

    def encode(self, value) -> list[int]:
        return encode_choice(int(value), 1)


@dataclass(frozen=True)
class HistogramQuery(Query):
    """M-bin one-hot counts (the plurality-election workload)."""

    bins: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise ParameterError("a histogram needs at least 2 bins")

    @property
    def label(self) -> str:
        return f"histogram[{self.bins}]"

    def build_params(self, *, num_provers, group, nb_override=None) -> PublicParams:
        return setup(
            self.epsilon,
            self.delta,
            num_provers=num_provers,
            dimension=self.bins,
            group=group,
            nb_override=nb_override,
        )

    def build_plan(self) -> AggregationPlan:
        return AggregationPlan.identity(self.bins)

    def encode(self, value) -> list[int]:
        return encode_choice(int(value), self.bins)

    def charged_budget(self) -> tuple[float, float]:
        # A one-hot input change touches two bins; each bin is (ε, δ)-DP,
        # so the end-to-end honest budget is (2ε, 2δ) by composition.
        return 2.0 * self.epsilon, 2.0 * self.delta


@dataclass(frozen=True)
class BoundedSumQuery(Query):
    """Verifiable DP sum of k-bit bounded client values.

    Clients commit to the bit decomposition of their value and range-prove
    it (Σ-OR per bit); the engine releases one lane weighted 2^j per bit
    coordinate with Δ = 2^k − 1 scaled Binomial noise.  The coin count is
    calibrated at (ε/Δ, δ/Δ) so the Δ-scaled noise delivers (ε, δ) for
    the Δ-incremental sum query (Lemma B.1).
    """

    value_bits: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 1 <= self.value_bits <= 32:
            raise ParameterError("value_bits must be in [1, 32]")

    @property
    def label(self) -> str:
        return f"bounded-sum[{self.value_bits}b]"

    @property
    def sensitivity(self) -> int:
        return (1 << self.value_bits) - 1

    def build_params(self, *, num_provers, group, nb_override=None) -> PublicParams:
        return setup(
            self.epsilon / self.sensitivity,
            min(self.delta / self.sensitivity, 0.5),
            num_provers=num_provers,
            dimension=self.value_bits,
            group=group,
            nb_override=nb_override,
        )

    def build_plan(self) -> AggregationPlan:
        return AggregationPlan.weighted_sum(
            tuple(1 << j for j in range(self.value_bits)), self.sensitivity
        )

    def encode(self, value) -> list[int]:
        value = int(value)
        if not 0 <= value <= self.sensitivity:
            raise ParameterError(f"value {value} outside [0, {self.sensitivity}]")
        return [(value >> j) & 1 for j in range(self.value_bits)]

    def make_client(self, name: str, value, rng: RNG) -> Client:
        from repro.api.clients import RangeClient

        return RangeClient(name, self.encode(value), rng)


@dataclass(frozen=True)
class ComposedQuery(Query):
    """Several queries over one client population, budget-accounted.

    A submitted client record is a tuple with one entry per subquery;
    the session runs one protocol instance per subquery (sequential
    composition) and charges each subquery's honest budget to the shared
    accountant.
    """

    queries: tuple[Query, ...]

    def __init__(self, queries) -> None:
        object.__setattr__(self, "queries", tuple(queries))
        if not self.queries:
            raise ParameterError("a composed query needs at least one subquery")
        if any(isinstance(q, ComposedQuery) for q in self.queries):
            raise ParameterError("composed queries do not nest")

    @property
    def label(self) -> str:
        return "composed[" + ", ".join(q.label for q in self.queries) + "]"

    @property
    def epsilon(self) -> float:
        return sum(q.charged_budget()[0] for q in self.queries)

    @property
    def delta(self) -> float:
        return sum(q.charged_budget()[1] for q in self.queries)

    def build_params(self, **_) -> PublicParams:
        raise ParameterError("composed queries build one params set per subquery")

    def build_plan(self) -> AggregationPlan:
        raise ParameterError("composed queries build one plan per subquery")

    def encode(self, value) -> list[int]:
        raise ParameterError("composed queries encode per subquery")
