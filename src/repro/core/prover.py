"""Provers (curators) of ΠBin.

A prover holds one additive share of every validated client's input
(all of it, in plaintext, when K = 1) and must convince the public
verifier that its output y_k equals

    Σ_i ⟦x_i⟧_k  +  Σ_j v̂_{j,k}        with  v̂_{j,k} = v_{j,k} ⊕ b_{j,k}

where the v are its own private coins (committed before the public Morra
bits b are drawn, and proven to be bits via Σ-OR) — Lines 2–11 of
Figure 2.

The honest :class:`Prover` implements the protocol exactly; the cheating
subclasses each deviate at one specific line, mirroring the case analysis
in the paper's soundness proof ("Cheat at Line 4/7/10").  Every deviation
is either *harmless by design* (biased private coins — the public XOR
washes the bias out) or *detected* by the verifier with overwhelming
probability.
"""

from __future__ import annotations

import hashlib

from repro.core.messages import (
    ClientBroadcast,
    ClientShareMessage,
    CoinCommitmentMessage,
    ProverOutputMessage,
)
from repro.core.params import PublicParams
from repro.core.plan import AggregationPlan
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening
from repro.crypto.sigma.or_bit import (
    BitProof,
    _bind,
    prove_bits,
    simulate_bit_transcript,
)
from repro.errors import ParameterError, ProtocolAbort
from repro.mpc.morra import MorraParticipant
from repro.utils.rng import RNG

__all__ = [
    "Prover",
    "coin_transcript",
    "ContextAccumulator",
    "broadcast_context_digest",
    "BiasedCoinProver",
    "NonBitCoinProver",
    "SkipAdjustmentProver",
    "OutputTamperingProver",
    "InputDroppingProver",
    "InputInjectingProver",
]


def coin_transcript(params: PublicParams, prover_id: str, context: bytes) -> Transcript:
    """The Fiat–Shamir transcript for a prover's coin proofs.

    Bound to pp, the prover's identity and a digest of all public client
    messages, so coin proofs cannot be replayed across runs or provers.
    """
    transcript = Transcript("repro.pibin.prover-coins")
    transcript.append_bytes("params", params.fingerprint())
    transcript.append_str("prover", prover_id)
    transcript.append_bytes("context", context)
    return transcript


class ContextAccumulator:
    """Incremental form of :func:`broadcast_context_digest`.

    The streaming session absorbs each client chunk as it arrives and
    drops the broadcasts; the final digest is byte-identical to hashing
    the full list at once.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256(b"repro.pibin.context")

    def absorb(self, broadcast: ClientBroadcast) -> None:
        self._h.update(broadcast.client_id.encode())
        for row in broadcast.share_commitments:
            for commitment in row:
                self._h.update(commitment.to_bytes())

    def digest(self) -> bytes:
        return self._h.digest()


def broadcast_context_digest(broadcasts: list[ClientBroadcast]) -> bytes:
    """Digest of the public client phase, shared by prover and verifier."""
    accumulator = ContextAccumulator()
    for broadcast in broadcasts:
        accumulator.absorb(broadcast)
    return accumulator.digest()


class Prover(MorraParticipant):
    """An honest ΠBin prover (index k).

    ``plan`` generalizes Figure 2's release shape (see
    :class:`repro.core.plan.AggregationPlan`); the default identity plan
    is the paper's protocol verbatim — one unit-weight lane per input
    coordinate with unit noise.
    """

    def __init__(
        self,
        name: str,
        params: PublicParams,
        rng: RNG | None = None,
        *,
        plan: AggregationPlan | None = None,
    ) -> None:
        super().__init__(name, rng)
        self.params = params
        self.plan = plan if plan is not None else AggregationPlan.identity(params.dimension)
        if self.plan.dimension != params.dimension:
            raise ParameterError("plan dimension does not match params dimension")
        # Openings of enrolled clients awaiting their chunk's verdicts.
        self._client_openings: dict[str, tuple[Opening, ...]] = {}
        # Coin-stream state (begin_coin_stream / absorb_* / finish_output).
        self._stream_transcript: Transcript | None = None
        self._coins_emitted = 0
        self._coins_absorbed = 0
        self._pending_openings: list[list[Opening]] = []
        self._share_y: list[int] | None = None
        self._share_z: list[int] | None = None
        self._noise_y = [0] * self.plan.lanes
        self._noise_z = [0] * self.plan.lanes

    # Phase A: receive client shares ---------------------------------------

    def receive_client_share(
        self,
        broadcast: ClientBroadcast,
        message: ClientShareMessage,
        prover_index: int,
    ) -> bool:
        """Check the private openings against the public commitments.

        Returns False (a public complaint) when the client's opening does
        not match what it broadcast — the client is then excluded
        everywhere.  The client→prover channel is authenticated in our
        model, so a complaint is attributable to the client.
        """
        if broadcast.client_id != message.client_id:
            raise ParameterError("broadcast/share client mismatch")
        if len(message.openings) != self.params.dimension:
            return False
        # A broadcast declaring fewer rows than K provers (or short rows)
        # is a client-attributable shape lie: complain, don't crash.
        if not 0 <= prover_index < len(broadcast.share_commitments):
            return False
        commitments = broadcast.share_commitments[prover_index]
        if len(commitments) != self.params.dimension:
            return False
        recomputed = self.params.pedersen.commit_many(
            [opening.value for opening in message.openings],
            [opening.randomness for opening in message.openings],
        )
        for commitment, expected in zip(commitments, recomputed):
            if expected.element != commitment.element:
                return False
        self._client_openings[message.client_id] = message.openings
        return True

    # Phase B: private coins (Lines 4-5) ------------------------------------

    def choose_coin(self, j: int, m: int) -> int:
        """Sample the private coin v_{j,m}.

        Honest provers sample uniformly; the protocol tolerates *any*
        bias here (the Morra XOR re-randomizes), which
        :class:`BiasedCoinProver` demonstrates.
        """
        return self.rng.coin()

    def _make_coins(
        self, transcript: Transcript, start: int, count: int
    ) -> tuple[list[list[Commitment]], list[list[Opening]], list[list[BitProof]]]:
        """Sample, commit and prove coins ``start .. start+count`` (rows × L)."""
        params = self.params
        q = params.q
        lanes = self.plan.lanes
        flat_openings = [
            Opening(self.choose_coin(j, lane) % q, self.rng.field_element(q))
            for j in range(start, start + count)
            for lane in range(lanes)
        ]
        flat_commitments = params.pedersen.commit_many(
            [o.value for o in flat_openings],
            [o.randomness for o in flat_openings],
        )
        flat_proofs = self._prove_coins(flat_commitments, flat_openings, transcript)

        def rows(flat: list) -> list[list]:
            return [flat[j * lanes : (j + 1) * lanes] for j in range(count)]

        return rows(flat_commitments), rows(flat_openings), rows(flat_proofs)

    def _prove_coins(
        self,
        commitments: list[Commitment],
        openings: list[Opening],
        transcript: Transcript,
    ) -> list[BitProof]:
        """Prove one chunk of coins (row-major) over the shared transcript.

        Hook so :class:`NonBitCoinProver` can attempt forgery.  The
        commitments were computed from these openings in
        :meth:`_make_coins`, so the proof does not recompute them.
        """
        return prove_bits(
            self.params.pedersen,
            commitments,
            openings,
            transcript,
            self.rng,
            recommit=False,
        )

    # Phase C: XOR adjustment and output (Lines 9-11) ------------------------

    def adjusted_coin(self, opening: Opening, bit: int) -> tuple[int, int]:
        """(v̂, signed randomness) for one coin given the public bit.

        b = 0:  v̂ = v,      randomness  +s   (commitment unchanged)
        b = 1:  v̂ = 1 - v,  randomness  -s   (ĉ' = Com(1,0) · c'⁻¹)
        """
        q = self.params.q
        if bit == 0:
            return opening.value % q, opening.randomness % q
        return (1 - opening.value) % q, (-opening.randomness) % q

    def select_client_ids(self, valid_ids: list[str]) -> list[str]:
        """Which validated clients to aggregate (honest: all of them)."""
        return list(valid_ids)

    def _combine_lanes(
        self,
        share_y: list[int],
        share_z: list[int],
        noise_y: list[int],
        noise_z: list[int],
    ) -> tuple[list[int], list[int]]:
        """Apply the plan's public weights: y_l = Σ_m w·share + Δ·noise."""
        q = self.params.q
        plan = self.plan
        if plan.is_identity():
            # Figure 2 verbatim: lane l is coordinate l, unit weights.
            return (
                [(s + n) % q for s, n in zip(share_y, noise_y)],
                [(s + n) % q for s, n in zip(share_z, noise_z)],
            )
        y: list[int] = []
        z: list[int] = []
        for lane in range(plan.lanes):
            weights = plan.lane_weights[lane]
            delta = plan.noise_weights[lane]
            y.append(
                (
                    sum(w * s for w, s in zip(weights, share_y))
                    + delta * noise_y[lane]
                )
                % q
            )
            z.append(
                (
                    sum(w * s for w, s in zip(weights, share_z))
                    + delta * noise_z[lane]
                )
                % q
            )
        return y, z

    def _emit_output(self, y: list[int], z: list[int]) -> ProverOutputMessage:
        """Hook so :class:`OutputTamperingProver` can lie at the last step."""
        return ProverOutputMessage(prover_id=self.name, y=tuple(y), z=tuple(z))

    # Chunked execution --------------------------------------------------------
    #
    # What the session engine drives: client shares and coin openings
    # fold into running sums as soon as their chunk's commitments are
    # settled, so the prover never holds more than one chunk of openings
    # (an unchunked run is one chunk of everything).  The cheat hooks
    # (`choose_coin`, `_prove_coins`, `adjusted_coin`,
    # `select_client_ids`, `_emit_output`, `finish_output`) all sit on
    # this path, so the cheating subclasses misbehave at every chunk size.

    def absorb_validated_clients(
        self, valid_ids: list[str], *, discard: list[str] = ()
    ) -> None:
        """Fold one chunk of validated clients' openings into the running
        share sums (Line 10, incrementally) and drop the openings.

        ``discard`` lists clients the verifier rejected; their retained
        openings are dropped too so the prover's state stays O(chunk).
        """
        q = self.params.q
        if self._share_y is None:
            self._share_y = [0] * self.params.dimension
            self._share_z = [0] * self.params.dimension
        for client_id in self.select_client_ids(list(valid_ids)):
            openings = self._client_openings.pop(client_id, None)
            if openings is None:
                raise ProtocolAbort(
                    f"validated client {client_id!r} never sent this prover a share",
                    party=self.name,
                )
            for m, opening in enumerate(openings):
                self._share_y[m] = (self._share_y[m] + opening.value) % q
                self._share_z[m] = (self._share_z[m] + opening.randomness) % q
        for client_id in discard:
            self._client_openings.pop(client_id, None)

    def begin_coin_stream(self, context: bytes) -> None:
        """Start the coin phase: one evolving transcript binds all nb
        coins, so the proofs are byte-identical at every chunk size under
        the same coin draws."""
        self._stream_transcript = coin_transcript(self.params, self.name, context)
        self._coins_emitted = 0
        self._coins_absorbed = 0
        self._pending_openings = []
        self._noise_y = [0] * self.plan.lanes
        self._noise_z = [0] * self.plan.lanes

    def request_coin_chunk(self, count: int, morra_count: int) -> None:
        """The engine's notice that :meth:`commit_coin_chunk` ``(count)``
        comes next, followed by the chunk's Morra round of ``morra_count``
        instances (count × L lanes), given before it checks the previous
        chunk.  A prover behind a wire starts proving on it, then samples
        and commits its Morra contributions on its own tape; in process
        there is nothing to overlap with, and the chunk is made when it is
        collected."""

    def commit_coin_chunk(self, count: int) -> CoinCommitmentMessage:
        """Commit and prove the next ``count`` coins (rows × L lanes)."""
        if self._stream_transcript is None:
            raise ProtocolAbort("begin_coin_stream was never called", party=self.name)
        if self._pending_openings:
            raise ProtocolAbort(
                "previous coin chunk still awaits its public bits", party=self.name
            )
        count = min(count, self.params.nb - self._coins_emitted)
        if count <= 0:
            raise ProtocolAbort("all nb coins already committed", party=self.name)
        commitments, openings, proofs = self._make_coins(
            self._stream_transcript, self._coins_emitted, count
        )
        self._coins_emitted += count
        self._pending_openings = openings
        return CoinCommitmentMessage(
            prover_id=self.name,
            commitments=tuple(tuple(row) for row in commitments),
            proofs=tuple(tuple(row) for row in proofs),
        )

    def absorb_public_bits(self, public_bits: list[list[int]]) -> None:
        """Fold the pending chunk's adjusted coins (Lines 9–11) into the
        running noise sums, then drop the chunk's openings."""
        q = self.params.q
        if len(public_bits) != len(self._pending_openings) or any(
            len(row) != self.plan.lanes for row in public_bits
        ):
            raise ProtocolAbort("public bit matrix has wrong shape", party=self.name)
        for o_row, b_row in zip(self._pending_openings, public_bits):
            for lane, (opening, bit) in enumerate(zip(o_row, b_row)):
                value, randomness = self.adjusted_coin(opening, bit)
                self._noise_y[lane] = (self._noise_y[lane] + value) % q
                self._noise_z[lane] = (self._noise_z[lane] + randomness) % q
        self._coins_absorbed += len(public_bits)
        self._pending_openings = []

    def finish_output(self) -> ProverOutputMessage:
        """Emit (y_k, z_k) from the running sums (Line 11)."""
        if self._coins_absorbed != self.params.nb or self._pending_openings:
            raise ProtocolAbort(
                f"coin stream incomplete ({self._coins_absorbed}/{self.params.nb} absorbed)",
                party=self.name,
            )
        share_y = self._share_y or [0] * self.params.dimension
        share_z = self._share_z or [0] * self.params.dimension
        y, z = self._combine_lanes(share_y, share_z, self._noise_y, self._noise_z)
        return self._emit_output(y, z)

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def commit_coins(self, context: bytes) -> CoinCommitmentMessage:
        """All nb coins as one chunk of a fresh coin stream."""
        self.begin_coin_stream(context)
        return self.commit_coin_chunk(self.params.nb)

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def compute_output(
        self, valid_ids: list[str], public_bits: list[list[int]]
    ) -> ProverOutputMessage:
        """One chunk of clients and one chunk of bits, then the output."""
        self.absorb_validated_clients(valid_ids)
        self.absorb_public_bits(public_bits)
        return self.finish_output()


# --------------------------------------------------------------------------
# Cheating provers — one per line of the soundness case analysis.
# --------------------------------------------------------------------------


class BiasedCoinProver(Prover):
    """Samples every private coin as 1 (maximal bias).

    *Not* an attack: the paper lets provers pick private coins with "any
    arbitrary bias" — v̂ = v ⊕ b is uniform because the Morra bit b is.
    Tests use this prover to show the output distribution is unchanged.
    """

    def choose_coin(self, j: int, m: int) -> int:
        return 1


class NonBitCoinProver(Prover):
    """Cheat at Line 4: commits to v = 2 ∉ {0, 1}.

    It cannot produce a real Σ-OR proof for a non-bit (the honest prover
    refuses), so it ships a *simulated-looking* proof built for a fake
    challenge; the Fiat–Shamir challenge bound to the transcript will not
    match and the verifier rejects with status BAD_COIN_PROOF.
    """

    def __init__(self, name: str, params: PublicParams, rng: RNG | None = None, *, bad_value: int = 2, plan=None) -> None:
        super().__init__(name, params, rng, plan=plan)
        self.bad_value = bad_value

    def choose_coin(self, j: int, m: int) -> int:
        return self.bad_value

    def _prove_coins(
        self,
        commitments: list[Commitment],
        openings: list[Opening],
        transcript: Transcript,
    ) -> list[BitProof]:
        # Forge: simulate against a self-chosen challenge. The transcript
        # must still be advanced the same way an honest proof would, or
        # every later proof would also fail (hiding which coin cheated).
        pedersen = self.params.pedersen
        q = self.params.q
        proofs = []
        for commitment in commitments:
            _bind(transcript, pedersen, commitment)
            fake_challenge = self.rng.field_element(q)
            proof = simulate_bit_transcript(pedersen, commitment, fake_challenge, self.rng)
            transcript.append_element("d0", proof.d0)
            transcript.append_element("d1", proof.d1)
            transcript.challenge_scalar("or-challenge", q)
            proofs.append(proof)
        return proofs


class SkipAdjustmentProver(Prover):
    """Cheat at Line 9: ignores the public Morra bits (keeps v̂ = v).

    Its (y, z) no longer matches the verifier's adjusted commitment
    product unless every Morra bit came up 0 (probability 2^-nb·M); the
    Line 13 check fails — status FAILED_FINAL_CHECK.
    """

    def adjusted_coin(self, opening: Opening, bit: int) -> tuple[int, int]:
        return opening.value % self.params.q, opening.randomness % self.params.q


class OutputTamperingProver(Prover):
    """Cheat at Line 10: shifts the released count by ``bias``.

    This is *the* attack motivating the paper — nudging the tally and
    blaming the discrepancy on DP noise.  To pass Line 13 it would need a
    second opening of the commitment product, i.e. break binding.
    """

    def __init__(self, name: str, params: PublicParams, rng: RNG | None = None, *, bias: int = 10, plan=None) -> None:
        super().__init__(name, params, rng, plan=plan)
        self.bias = bias

    def _emit_output(self, y: list[int], z: list[int]) -> ProverOutputMessage:
        tampered = [(value + self.bias) % self.params.q for value in y]
        return ProverOutputMessage(prover_id=self.name, y=tuple(tampered), z=tuple(z))


class InputDroppingProver(Prover):
    """Figure 1(a) as attempted inside ΠBin: silently exclude a client.

    Unlike in Poplar/PRIO, the victim's share commitment is public, so
    the verifier's product on Line 13 includes it and the prover's
    dropped aggregate cannot match — guaranteed inclusion of honest
    clients.
    """

    def __init__(self, name: str, params: PublicParams, rng: RNG | None = None, *, victim: str = "", plan=None) -> None:
        super().__init__(name, params, rng, plan=plan)
        self.victim = victim

    def select_client_ids(self, valid_ids: list[str]) -> list[str]:
        return [cid for cid in valid_ids if cid != self.victim]


class InputInjectingProver(Prover):
    """Figure 1(b) as attempted inside ΠBin: stuff extra ballots.

    Adds ``extra`` phantom votes to its aggregate; no public commitment
    backs them, so Line 13 fails.  The injection happens in the
    ``_emit_output`` hook, the last step of :meth:`~Prover.finish_output`.
    """

    def __init__(self, name: str, params: PublicParams, rng: RNG | None = None, *, extra: int = 5, plan=None) -> None:
        super().__init__(name, params, rng, plan=plan)
        self.extra = extra

    def _emit_output(self, y: list[int], z: list[int]) -> ProverOutputMessage:
        honest = super()._emit_output(y, z)
        stuffed = [(value + self.extra) % self.params.q for value in honest.y]
        return ProverOutputMessage(prover_id=self.name, y=tuple(stuffed), z=honest.z)
