"""Message and record types exchanged during ΠBin.

Everything a party broadcasts is public (the verifier is public: "anyone
(even non-participants to ΠBin) can see the messages it receives",
Section 4.3).  Private channels carry only :class:`ClientShareMessage`.

Index conventions (matching Figure 2):

* ``i`` ∈ [n] indexes clients, ``k`` ∈ [K] provers, ``m`` ∈ [M] histogram
  coordinates, ``j`` ∈ [nb] private noise coins.
* ``c[i][k][m]`` — client commitment to the k-th share of coordinate m.
* ``c'[j][m]`` — a prover's commitment to private coin j of coordinate m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.crypto.pedersen import Commitment, Opening
from repro.crypto.sigma.bitvec import BitVectorProof
from repro.crypto.sigma.onehot import OneHotProof
from repro.crypto.sigma.or_bit import BitProof

__all__ = [
    "ClientBroadcast",
    "ClientShareMessage",
    "CoinCommitmentMessage",
    "ProverOutputMessage",
    "MorraCommitMessage",
    "MorraRevealMessage",
    "ClientStatus",
    "ProverStatus",
    "AuditRecord",
    "Release",
]


@dataclass(frozen=True)
class ClientBroadcast:
    """A client's public message (Line 2–3 of Figure 2).

    ``share_commitments[k][m]`` commits to the k-th share of coordinate m;
    ``validity_proof`` proves the *derived* commitments c_m = Π_k c[k][m]
    (which anyone can compute) lie in the query's language L: Σ-OR for a
    bit, one-hot for histograms, bit-vector for range decompositions.
    """

    client_id: str
    share_commitments: tuple[tuple[Commitment, ...], ...]
    validity_proof: BitProof | OneHotProof | BitVectorProof

    def derived_commitments(self) -> list[Commitment]:
        """c_m = Π_k c[k][m] — commitments to the plaintext coordinates."""
        out = []
        for m in range(len(self.share_commitments[0])):
            acc = self.share_commitments[0][m]
            for k in range(1, len(self.share_commitments)):
                acc = acc * self.share_commitments[k][m]
            out.append(acc)
        return out


@dataclass(frozen=True)
class ClientShareMessage:
    """A client's private message to one prover: openings of its share
    commitments for that prover (⟦x_i⟧_k with randomness, Line 2)."""

    client_id: str
    openings: tuple[Opening, ...]  # one per coordinate m


@dataclass(frozen=True)
class CoinCommitmentMessage:
    """A prover's coin commitments and bit proofs (Lines 4–5).

    ``commitments[j][m]`` with matching ``proofs[j][m]``.
    """

    prover_id: str
    commitments: tuple[tuple[Commitment, ...], ...]
    proofs: tuple[tuple[BitProof, ...], ...]


@dataclass(frozen=True)
class ProverOutputMessage:
    """A prover's final (y_k, z_k) per coordinate (Lines 10–11)."""

    prover_id: str
    y: tuple[int, ...]
    z: tuple[int, ...]


@dataclass(frozen=True)
class MorraCommitMessage:
    """One party's Morra commit round (Algorithm 1, step 2).

    ``digests[i]`` is the hash commitment to contribution m_i of the i-th
    parallel instance; the values themselves stay private until reveal.
    """

    sender: str
    digests: tuple[bytes, ...]


@dataclass(frozen=True)
class MorraRevealMessage:
    """One party's Morra reveal round (Algorithm 1, step 3).

    Only the contributed values are public protocol messages; the
    commitment randomness travels on the point-to-point opening channel
    and is consumed by the verifying parties.
    """

    sender: str
    values: tuple[int, ...]


class ClientStatus(Enum):
    """Public per-client verdict (the Line 3 'public record')."""

    VALID = "valid"
    INVALID_PROOF = "invalid-proof"
    BAD_OPENING = "bad-opening"


class ProverStatus(Enum):
    """Public per-prover verdict."""

    HONEST = "honest"
    BAD_COIN_PROOF = "bad-coin-proof"
    FAILED_FINAL_CHECK = "failed-final-check"
    ABORTED = "aborted"


@dataclass
class AuditRecord:
    """The public audit trail of one protocol run.

    This is what makes the protocol *publicly auditable* (Table 2): every
    accept/reject decision is recorded with its reason, so any third party
    replaying the public messages reaches the same verdicts.
    """

    clients: dict[str, ClientStatus] = field(default_factory=dict)
    provers: dict[str, ProverStatus] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def valid_clients(self) -> list[str]:
        return [cid for cid, status in self.clients.items() if status is ClientStatus.VALID]

    def all_provers_honest(self) -> bool:
        return all(status is ProverStatus.HONEST for status in self.provers.values())

    def note(self, message: str) -> None:
        self.notes.append(message)


@dataclass(frozen=True)
class Release:
    """The verified DP output.

    ``raw`` is y = Σ_k y_k per coordinate (count plus noise, in Z_q);
    ``estimate`` subtracts the public noise mean K·nb/2.  ``accepted`` is
    the verifier's overall bit — when False the output must be discarded
    (a cheater was detected and is named in the audit record).
    """

    raw: tuple[int, ...]
    estimate: tuple[float, ...]
    accepted: bool
    audit: AuditRecord
    epsilon: float
    delta: float
