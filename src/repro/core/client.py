"""Clients of ΠBin.

A client holds a value in the legal language L — a bit for M = 1, a
one-hot vector for M-bin histograms — and produces (Line 2 of Figure 2):

* K share vectors, one per prover, under additive sharing mod q,
* per-share Pedersen commitments, broadcast publicly,
* a validity proof over the derived commitments (Σ-OR for a bit, the
  Appendix C one-hot proof for M > 1),
* a private :class:`ClientShareMessage` per prover carrying that prover's
  openings.

Dishonest-client variants used by the attack experiments are at the
bottom; their submissions are *rejected* by the public verifier (the
"guaranteed exclusion of corrupt clients" property of Section 4.2).
"""

from __future__ import annotations

from repro.core.messages import ClientBroadcast, ClientShareMessage
from repro.core.params import PublicParams
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma.onehot import prove_one_hot
from repro.crypto.sigma.or_bit import prove_bit
from repro.errors import ParameterError
from repro.mpc.party import Party
from repro.sharing.additive import share_additive
from repro.utils.rng import RNG

__all__ = [
    "encode_choice",
    "Client",
    "NonBinaryClient",
    "NotOneHotClient",
    "InconsistentShareClient",
]


def encode_choice(choice: int, dimension: int) -> list[int]:
    """One-hot encode a choice in [0, M) (identity for M = 1 bit inputs)."""
    if dimension == 1:
        if choice not in (0, 1):
            raise ParameterError("for dimension 1 the input must be a bit")
        return [choice]
    if not 0 <= choice < dimension:
        raise ParameterError(f"choice {choice} out of range for {dimension} bins")
    return [1 if m == choice else 0 for m in range(dimension)]


def _client_transcript(params: PublicParams, client_id: str) -> Transcript:
    transcript = Transcript("repro.pibin.client-validity")
    transcript.append_bytes("params", params.fingerprint())
    transcript.append_str("client", client_id)
    return transcript


class Client(Party):
    """An honest client holding a vector in L."""

    def __init__(self, name: str, vector: list[int], rng: RNG | None = None) -> None:
        super().__init__(name, rng)
        self.vector = list(vector)

    def _share_and_commit(
        self, params: PublicParams
    ) -> tuple[list[list[int]], list[list[Opening]], list[list[Commitment]]]:
        """Share each coordinate across K provers and commit to each share.

        Returns (shares, openings, commitments) indexed [k][m].
        """
        k_provers = params.num_provers
        q = params.q
        shares_km: list[list[int]] = [[] for _ in range(k_provers)]
        openings_km: list[list[Opening]] = [[] for _ in range(k_provers)]
        flat: list[tuple[int, Opening]] = []  # (prover index, opening)
        for value in self.vector:
            shares = share_additive(value, k_provers, q, self.rng)
            for k, share in enumerate(shares):
                opening = Opening(share % q, self.rng.field_element(q))
                shares_km[k].append(share)
                openings_km[k].append(opening)
                flat.append((k, opening))
        # One fused commit pass over every (prover, coordinate) share.
        flat_commitments = params.pedersen.commit_many(
            [o.value for _, o in flat], [o.randomness for _, o in flat]
        )
        commitments_km: list[list[Commitment]] = [[] for _ in range(k_provers)]
        for (k, _), commitment in zip(flat, flat_commitments):
            commitments_km[k].append(commitment)
        return shares_km, openings_km, commitments_km

    def _validity_proof(
        self,
        params: PublicParams,
        openings_km: list[list[Opening]],
        commitments_km: list[list[Commitment]],
    ):
        """Prove the derived (plaintext) commitments are in L.

        Coordinate m's derived commitment C_m = Π_k c_{k,m} opens to the
        sum of its share openings.  It is built from the share
        commitments this client computed one step earlier, so the proof
        does not recompute it (``recommit=False``); that each coordinate
        is a bit (and the vector one-hot) is still checked.
        """
        pedersen = params.pedersen
        dimension = params.dimension
        derived_openings = [
            pedersen.add_openings([openings_km[k][m] for k in range(params.num_provers)])
            for m in range(dimension)
        ]
        derived_commitments = [
            pedersen.product([commitments_km[k][m] for k in range(params.num_provers)])
            for m in range(dimension)
        ]
        transcript = _client_transcript(params, self.name)
        return self._prove_derived(pedersen, derived_commitments, derived_openings, transcript)

    def _prove_derived(
        self,
        pedersen: PedersenParams,
        commitments: list[Commitment],
        openings: list[Opening],
        transcript: Transcript,
    ):
        """The validity proof of L over derived pairs it need not recompute:
        Σ-OR for a bit, the one-hot proof for M > 1."""
        if len(commitments) == 1:
            return prove_bit(
                pedersen, commitments[0], openings[0], transcript, self.rng, recommit=False
            )
        return prove_one_hot(pedersen, commitments, openings, transcript, self.rng)

    def submit(
        self, params: PublicParams
    ) -> tuple[ClientBroadcast, list[ClientShareMessage]]:
        """Produce the public broadcast and the K private share messages."""
        if len(self.vector) != params.dimension:
            raise ParameterError(
                f"client vector has {len(self.vector)} coordinates, expected {params.dimension}"
            )
        shares_km, openings_km, commitments_km = self._share_and_commit(params)
        proof = self._validity_proof(params, openings_km, commitments_km)
        broadcast = ClientBroadcast(
            client_id=self.name,
            share_commitments=tuple(tuple(row) for row in commitments_km),
            validity_proof=proof,
        )
        privates = [
            ClientShareMessage(client_id=self.name, openings=tuple(openings_km[k]))
            for k in range(params.num_provers)
        ]
        return broadcast, privates


class NonBinaryClient(Client):
    """Submits a value outside {0, 1} (e.g. 5 votes at once).

    It cannot construct a valid Σ-OR proof (the prover-side check in
    :func:`prove_bit` would refuse, and forging is infeasible), so it
    mimics an attacker by reusing a proof for a *different* commitment:
    the verifier rejects because the Fiat–Shamir challenge is bound to
    the actual derived commitment.
    """

    def submit(self, params: PublicParams):
        true_vector = self.vector
        # Build an honest-looking submission for a legal vector...
        self.vector = encode_choice(0, params.dimension)
        broadcast, _ = super().submit(params)
        legal_proof = broadcast.validity_proof
        # ...then swap in shares/commitments of the illegal vector.
        self.vector = true_vector
        shares_km, openings_km, commitments_km = self._share_and_commit(params)
        forged = ClientBroadcast(
            client_id=self.name,
            share_commitments=tuple(tuple(row) for row in commitments_km),
            validity_proof=legal_proof,
        )
        privates = [
            ClientShareMessage(client_id=self.name, openings=tuple(openings_km[k]))
            for k in range(params.num_provers)
        ]
        return forged, privates


class NotOneHotClient(NonBinaryClient):
    """M > 1 variant: submits e.g. two hot coordinates or a cold vector."""


class InconsistentShareClient(Client):
    """Broadcasts commitments to one sharing but sends a prover different
    openings (tries to make provers disagree about its input).

    Caught by the receiving prover's opening check against the public
    commitments; audit status BAD_OPENING.
    """

    def __init__(self, name: str, vector: list[int], *, victim_prover: int = 0, rng=None) -> None:
        super().__init__(name, vector, rng)
        self.victim_prover = victim_prover

    def submit(self, params: PublicParams):
        broadcast, privates = super().submit(params)
        k = self.victim_prover % params.num_provers
        tampered = list(privates[k].openings)
        first = tampered[0]
        tampered[0] = Opening((first.value + 1) % params.q, first.randomness)
        privates[k] = ClientShareMessage(client_id=self.name, openings=tuple(tampered))
        return broadcast, privates
