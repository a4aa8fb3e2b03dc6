"""repro.api — the unified Query/Session interface.

Queries are composable descriptions (*what* to release, at what budget);
a :class:`Session` is the phase-driven engine that executes them
(*how*): ENROLL → VALIDATE → COMMIT_COINS → MORRA → ADJUST → RELEASE,
over the :mod:`repro.core.messages` types and the :mod:`repro.mpc.bus`
transport, in chunks — one chunk by default, which keeps the messages
for audit replay; smaller ones for O(chunk) verifier memory at paper
scale.

Quick start::

    from repro.api import CountQuery, Session

    session = Session(CountQuery(epsilon=1.0, delta=2**-10), group="p128-sim")
    session.submit([1, 0, 1, 1, 0, 1])
    result = session.release()
    assert result.accepted
    print(result.estimate)

See ``README.md`` for the full tour and ``DESIGN.md`` for the state
machine.
"""

from repro.api.clients import RangeClient
from repro.api.engine import EngineResult, ProtocolEngine
from repro.api.phases import Phase, TRANSITIONS
from repro.api.queries import (
    BoundedSumQuery,
    ComposedQuery,
    CountQuery,
    HistogramQuery,
    Query,
)
from repro.api.session import QueryResult, Session, SessionResult

__all__ = [
    "Query",
    "CountQuery",
    "HistogramQuery",
    "BoundedSumQuery",
    "ComposedQuery",
    "Session",
    "SessionResult",
    "QueryResult",
    "Phase",
    "TRANSITIONS",
    "ProtocolEngine",
    "EngineResult",
    "RangeClient",
]
