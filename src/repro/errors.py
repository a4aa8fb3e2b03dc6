"""Exception hierarchy for the ``repro`` library.

Protocol code raises rather than returning sentinel values: a failed
verification, a malformed message, or an aborted multi-party round is an
exceptional control-flow event that callers must consciously handle.

The hierarchy mirrors the trust boundaries of the paper:

* :class:`ParameterError` — misuse of the library API (bad arguments).
* :class:`CryptoError` — failures inside cryptographic primitives.
* :class:`VerificationError` — a proof or commitment check failed; carries
  enough context to name the misbehaving party (public auditability).
* :class:`ProtocolAbort` — a multi-party protocol stopped early (a party
  went silent or a commit-reveal check failed), per Algorithm 1 step 3.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "CryptoError",
    "EncodingError",
    "NotOnGroupError",
    "VerificationError",
    "CommitmentOpeningError",
    "ProofRejected",
    "SessionStateError",
    "ProtocolAbort",
    "EarlyExit",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ParameterError(ReproError, ValueError):
    """An API was called with invalid or inconsistent parameters."""


class CryptoError(ReproError):
    """A cryptographic primitive failed or was misused."""


class EncodingError(CryptoError, ValueError):
    """A byte string could not be decoded into the expected object."""


class NotOnGroupError(CryptoError, ValueError):
    """A value is not a member of the expected prime-order group."""


class VerificationError(ReproError):
    """A verification check failed.

    Attributes
    ----------
    culprit:
        Identifier of the party whose message failed verification, when
        known.  Verifiable DP makes misbehaviour *publicly attributable*
        (Section 4.3, Line 3: "a public record of honest and dishonest
        clients"), so errors carry the name of the offender.
    """

    def __init__(self, message: str, *, culprit: str | None = None) -> None:
        super().__init__(message if culprit is None else f"{message} (culprit: {culprit})")
        self.culprit = culprit


class CommitmentOpeningError(VerificationError):
    """An opening (value, randomness) does not match its commitment."""


class ProofRejected(VerificationError):
    """A zero-knowledge proof failed verification."""


class SessionStateError(ReproError):
    """A session method was called in the wrong phase.

    The :class:`repro.api.Session` engine is an explicit state machine
    (ENROLL → VALIDATE → COMMIT_COINS → MORRA → ADJUST → RELEASE); calls
    that would violate the protocol's ordering — submitting clients after
    coins are committed, say — fail loudly rather than corrupt the run.
    """


class ProtocolAbort(ReproError):
    """A multi-party protocol aborted before producing output."""

    def __init__(self, message: str, *, party: str | None = None) -> None:
        super().__init__(message if party is None else f"{message} (party: {party})")
        self.party = party


class EarlyExit(ProtocolAbort):
    """A participant stopped responding mid-protocol.

    The paper (Section 3.1) does not treat early exit as a security breach:
    it is trivially detected and the output is discarded.  We model it as a
    distinguished abort so callers can assert on exactly this behaviour.
    """
