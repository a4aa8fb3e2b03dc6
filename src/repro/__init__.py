"""repro — a full reproduction of *Verifiable Differential Privacy*
(Narayan, Feldman, Papadimitriou & Haeberlen, EuroSys 2015).

Differential privacy's randomness is an attack surface: a malicious
aggregator can bias "noise" and claim innocence.  This library implements
the paper's answer — ΠBin, a protocol whose DP releases come with a
zero-knowledge argument that the statistic is the true aggregate of
validated client inputs plus honestly-sampled Binomial noise — together
with every substrate it stands on and every baseline it is compared to.

Quick start (trusted curator)::

    from repro import CountQuery, Session

    session = Session(CountQuery(epsilon=1.0, delta=2**-10), group="p128-sim")
    session.submit([1, 0, 1, 1, 0, 1])
    result = session.release()
    assert result.accepted                  # proofs checked out
    print(result.results[0].estimate)       # DP count (noise mean removed)

Histograms, bounded sums and composed multi-query workloads run through
the same :class:`~repro.api.Session` engine — declaratively via
:mod:`repro.api` queries, in chunks via ``chunk_size`` for O(chunk)
verifier memory at paper scale (nb = 262,144).  See ``README.md`` for
the tour, ``DESIGN.md`` for the phase state machine, and ``examples/``
for the MPC election and telemetry scenarios.
"""

from repro.api import (
    BoundedSumQuery,
    ComposedQuery,
    CountQuery,
    HistogramQuery,
    Phase,
    Query,
    QueryResult,
    Session,
    SessionResult,
)
from repro.core import (
    Client,
    PublicParams,
    PublicVerifier,
    Prover,
    Release,
    encode_choice,
    setup,
)
from repro.dp import (
    BinomialMechanism,
    LaplaceMechanism,
    RandomizedResponse,
    coins_for_privacy,
    epsilon_for_coins,
)
from repro.errors import (
    ProofRejected,
    ProtocolAbort,
    ReproError,
    SessionStateError,
    VerificationError,
)

__version__ = "3.0.0"

__all__ = [
    # Declarative query/session API (the advertised surface).
    "Query",
    "CountQuery",
    "HistogramQuery",
    "BoundedSumQuery",
    "ComposedQuery",
    "Session",
    "SessionResult",
    "QueryResult",
    "Phase",
    # Protocol substrate.
    "setup",
    "PublicParams",
    "Client",
    "Prover",
    "PublicVerifier",
    "Release",
    "encode_choice",
    # Mechanisms.
    "BinomialMechanism",
    "LaplaceMechanism",
    "RandomizedResponse",
    "coins_for_privacy",
    "epsilon_for_coins",
    # Errors.
    "ReproError",
    "VerificationError",
    "ProofRejected",
    "ProtocolAbort",
    "SessionStateError",
    "__version__",
]
