"""The session engine's phase state machine.

ΠBin (Figure 2) is one protocol machine; the phases name its rounds:

``ENROLL``
    Clients submit share commitments + validity proofs.  Every full
    chunk of ``chunk_size`` enrollments is closed here, eagerly: provers
    check their private openings, the verifier validates the proofs and
    folds the Line 13 client products, and nothing but the audit verdicts
    and running products survives the chunk.
``VALIDATE``
    The last client chunk closes (with ``chunk_size=None``: the only one,
    holding every client), which finalizes the public client record
    (Line 3) and fixes the context digest binding all broadcasts — after
    this point no client can join and every coin proof is bound to the
    complete client phase.
``COMMIT_COINS``
    A prover is asked for one chunk of coins × L lanes with Σ-OR bit
    proofs (Lines 4–6).  While it proves, the verifier checks the proofs
    of the chunk before (which has had its Morra round); then the new
    chunk is collected and held.  The last chunk of the run has no
    request to enter this phase with: it is checked at the end of
    ``ADJUST``.
``MORRA``
    Prover and verifier co-sample the chunk's public bits (Lines 7–8,
    Algorithm 1).
``ADJUST``
    Line 9/12: the prover folds v̂ = v ⊕ b into its running sums, the
    verifier folds the homomorphic ĉ' products.  The engine loops
    ``COMMIT_COINS → MORRA → ADJUST`` once per chunk per prover (with
    ``chunk_size=None``: once per prover, one chunk of nb) — each coin is
    committed strictly before its public bit is drawn, and its proof is
    bound to that commitment whenever it is checked.
``RELEASE``
    Prover outputs (Lines 10–11), the Line 13 check, aggregation and the
    audit record.
``DONE``
    Terminal; the session cannot be reused.

Transitions outside :data:`TRANSITIONS` raise
:class:`repro.errors.SessionStateError` — the ordering ("commit before
Morra") is a soundness requirement, not a style choice.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import SessionStateError

__all__ = ["Phase", "TRANSITIONS", "advance"]


class Phase(Enum):
    """Lifecycle phase of a protocol session."""

    ENROLL = "enroll"
    VALIDATE = "validate"
    COMMIT_COINS = "commit-coins"
    MORRA = "morra"
    ADJUST = "adjust"
    RELEASE = "release"
    DONE = "done"


TRANSITIONS: dict[Phase, frozenset[Phase]] = {
    Phase.ENROLL: frozenset({Phase.VALIDATE}),
    Phase.VALIDATE: frozenset({Phase.COMMIT_COINS}),
    # COMMIT_COINS → COMMIT_COINS covers a prover failing a chunk while
    # the next prover starts; → RELEASE covers the last prover failing
    # coin validation (the run still releases an audit).
    Phase.COMMIT_COINS: frozenset(
        {Phase.MORRA, Phase.COMMIT_COINS, Phase.RELEASE}
    ),
    Phase.MORRA: frozenset({Phase.ADJUST}),
    Phase.ADJUST: frozenset({Phase.COMMIT_COINS, Phase.RELEASE}),
    Phase.RELEASE: frozenset({Phase.DONE}),
    Phase.DONE: frozenset(),
}


def advance(current: Phase, target: Phase) -> Phase:
    """Validate a transition; returns ``target`` or raises."""
    if target not in TRANSITIONS[current]:
        raise SessionStateError(
            f"illegal phase transition {current.value!r} -> {target.value!r}"
        )
    return target
