"""The public verifier of ΠBin.

The verifier (the "analyst" Vfr) never sees a client input, a private
coin, or any commitment opening other than the aggregate (y_k, z_k).  It:

1. validates every client's Σ-OR / one-hot / bit-vector proof over the
   *derived* commitments (Line 3) and publishes the per-client verdicts,
2. checks every prover's coin commitments are bits (Lines 5–6),
3. co-samples the public Morra bits with each prover (Lines 7–8),
4. applies the linear commitment update ĉ' (Line 12) — computing a
   commitment to v̂ = v ⊕ b without knowing v, and
5. checks Π_m (Π_i c_{i,m})^{w_m} · (Π_j ĉ'_{j,l})^{Δ_l} == Com(y_l, z_l)
   per release lane (Line 13; unit weights reproduce the paper's check).

Because all five steps consume only public messages, *anyone* can replay
them: the audit record produced here is reproducible by third parties,
which is the "publicly auditable" property of Table 2.

Verification is **batched by default**: the Σ-OR equations of one chunk
— a prover's coin proofs, or the clients' validity proofs — are folded
into a :class:`repro.crypto.sigma.batch.SigmaBatch` random linear
combination and checked with one Pippenger multi-exponentiation.  A batch
rejection cannot name the cheater, so on failure the verifier replays
the sequential per-proof path to pinpoint (and audit-record) exactly
which proof failed; construct with ``batch=False`` to force the
sequential path throughout (the ablation benchmarks do).

Verification is **chunked**: the ``begin_coin_stream`` /
``hold_coin_chunk`` / ``apply_public_bits_chunk`` / ``verify_coin_chunk`` /
``finish_coin_stream`` family verifies a prover's nb proofs chunk by
chunk over one evolving Fiat–Shamir transcript (a chunk's proofs may be
checked before or after its Morra bits are folded, never after the next
chunk is taken), folding each chunk's Line 12 update into a running
product and then discarding it, and ``fold_client_commitments`` /
``check_prover_output_folded`` do the same for Line 13.  An unchunked run
is one chunk of nb coins and every client; a chunked one keeps peak
memory O(chunk) instead of O(nb), which is what lets a 262,144-coin run
fit on a laptop (see ``repro.api.Session``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import _client_transcript
from repro.core.messages import (
    AuditRecord,
    ClientBroadcast,
    ClientStatus,
    CoinCommitmentMessage,
    ProverOutputMessage,
    ProverStatus,
)
from repro.core.params import PublicParams
from repro.core.plan import AggregationPlan
from repro.core.prover import coin_transcript
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.group import GroupElement
from repro.crypto.pedersen import Commitment
from repro.crypto.sigma.batch import GAMMA_BITS, SigmaBatch
from repro.crypto.sigma.bitvec import BitVectorProof, verify_bit_vector
from repro.crypto.sigma.onehot import OneHotProof, verify_one_hot
from repro.crypto.sigma.or_bit import BitProof, verify_bit
from repro.errors import EncodingError, ParameterError, VerificationError
from repro.mpc.morra import MorraParticipant
from repro.utils.rng import RNG, SystemRNG

__all__ = ["PublicVerifier"]

_PROOF_TYPES = {"bit": BitProof, "onehot": OneHotProof, "bitvec": BitVectorProof}


@dataclass
class _CoinStream:
    """Per-prover state of a chunked coin verification."""

    transcript: Transcript
    lanes: int
    received: int = 0
    failed: bool = False
    # The held chunk's commitments, awaiting their Morra bits (Line 12
    # needs nothing else of the chunk).
    pending: tuple[tuple[Commitment, ...], ...] = ()
    # The held chunk while its proofs are unchecked — the engine checks
    # them after the chunk's Morra round, never after the next hold.
    unverified: CoinCommitmentMessage | None = None
    # Running Line 12 folds per lane.
    keep: list[GroupElement | None] = field(default_factory=list)
    flip: list[GroupElement | None] = field(default_factory=list)
    flips: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.keep = [None] * self.lanes
        self.flip = [None] * self.lanes
        self.flips = [0] * self.lanes


class PublicVerifier(MorraParticipant):
    """The (honest) public verifier / analyst."""

    def __init__(
        self,
        params: PublicParams,
        rng: RNG | None = None,
        *,
        name: str = "verifier",
        batch: bool = True,
        gamma_rng: RNG | None = None,
        plan: AggregationPlan | None = None,
    ) -> None:
        super().__init__(name, rng)
        self.params = params
        self.plan = plan if plan is not None else AggregationPlan.identity(params.dimension)
        if self.plan.dimension != params.dimension:
            raise ParameterError("plan dimension does not match params dimension")
        self.batch = batch
        # Batch RLC weights must be unpredictable to proof authors even
        # when ``rng`` is a seeded simulation stream (a predictable γ
        # stream lets two tampered proofs cancel — see the batch module
        # docstring), so they come from a dedicated source that defaults
        # to system randomness.  Auditors replaying with a *public* RNG
        # must use ``batch=False`` instead.
        self.gamma_rng = gamma_rng if gamma_rng is not None else SystemRNG()
        self.audit = AuditRecord()
        # Per-lane ĉ' products of each prover whose coin stream finished.
        self._adjusted_products: dict[str, list[Commitment]] = {}
        # Running folds: open coin streams and Line 13 client products.
        self._coin_streams: dict[str, _CoinStream] = {}
        self._client_products: list[list[GroupElement | None]] = [
            [None] * params.dimension for _ in range(params.num_provers)
        ]

    @property
    def lanes(self) -> int:
        return self.plan.lanes

    # Phase 1: client validation (Line 3) -----------------------------------

    def validate_client(self, broadcast: ClientBroadcast) -> ClientStatus:
        """Check shape and the validity proof of one client submission.

        This is the sequential path; it stays authoritative so a failed
        batch can always be replayed proof by proof.
        """
        params = self.params
        if not self._client_shape_ok(broadcast):
            return ClientStatus.INVALID_PROOF
        derived = broadcast.derived_commitments()
        transcript = _client_transcript(params, broadcast.client_id)
        validity = self.plan.validity
        try:
            if validity == "bit":
                verify_bit(params.pedersen, derived[0], broadcast.validity_proof, transcript)
            elif validity == "onehot":
                verify_one_hot(params.pedersen, derived, broadcast.validity_proof, transcript)
            else:
                verify_bit_vector(
                    params.pedersen, derived, broadcast.validity_proof, transcript
                )
        except VerificationError:
            return ClientStatus.INVALID_PROOF
        return ClientStatus.VALID

    def _client_shape_ok(self, broadcast: ClientBroadcast) -> bool:
        params = self.params
        if not (
            len(broadcast.share_commitments) == params.num_provers
            and all(len(row) == params.dimension for row in broadcast.share_commitments)
        ):
            return False
        return isinstance(broadcast.validity_proof, _PROOF_TYPES[self.plan.validity])

    def validate_clients(
        self,
        broadcasts: list[ClientBroadcast],
        complaints: dict[str, list[str]] | None = None,
    ) -> list[str]:
        """Validate all clients; returns ids of included clients.

        With batching enabled every client's validity proof is folded
        into one cross-client random linear combination (a single
        multi-exponentiation); a rejection replays the per-client path so
        the audit record still names each invalid client individually.

        ``complaints`` maps prover name → client ids whose private opening
        failed that prover's check; such clients are excluded with status
        BAD_OPENING (the public record resolving Figure 1's ambiguity).

        Incremental by construction: the engine calls this once per
        chunk and the audit record simply accumulates.
        """
        if self.batch:
            statuses = self._validate_clients_batched(broadcasts)
        else:
            statuses = [self.validate_client(broadcast) for broadcast in broadcasts]
        complained = {cid for cids in (complaints or {}).values() for cid in cids}
        valid: list[str] = []
        for broadcast, status in zip(broadcasts, statuses):
            if status is ClientStatus.VALID and broadcast.client_id in complained:
                status = ClientStatus.BAD_OPENING
            self.audit.clients[broadcast.client_id] = status
            if status is ClientStatus.VALID:
                valid.append(broadcast.client_id)
        return valid

    def _validate_clients_batched(
        self, broadcasts: list[ClientBroadcast]
    ) -> list[ClientStatus]:
        """Per-broadcast statuses, aligned with ``broadcasts`` by position
        (never keyed by client id — duplicate ids must not share a verdict).
        """
        combined = SigmaBatch(self.params.pedersen, self.gamma_rng)
        staged: list[int] = []
        statuses: list[ClientStatus] = []
        for i, broadcast in enumerate(broadcasts):
            ok = self._client_shape_ok(broadcast) and self._stage_into(
                combined, lambda sub: self._fold_client(sub, broadcast)
            )
            if ok:
                staged.append(i)
            statuses.append(
                ClientStatus.VALID if ok else ClientStatus.INVALID_PROOF
            )
        if staged and not self._verify_staged(combined):
            # One combined product cannot name the cheater; replay each
            # staged client sequentially to pinpoint.
            for i in staged:
                statuses[i] = self.validate_client(broadcasts[i])
        return statuses

    # Shared batch staging ---------------------------------------------------

    def _stage_into(self, combined: SigmaBatch, fold) -> bool:
        """Fold one message into ``combined`` via a throwaway sub-batch.

        Staging per message means a structural failure (bad challenge
        split) taints only that message, never the whole combination.
        Returns False — leaving ``combined`` untouched — when ``fold``
        raises a verification error.
        """
        sub = SigmaBatch(self.params.pedersen, self.gamma_rng)
        try:
            fold(sub)
        except VerificationError:
            return False
        combined.merge(sub)
        return True

    @staticmethod
    def _verify_staged(combined: SigmaBatch) -> bool:
        try:
            combined.verify()
        except VerificationError:
            return False
        return True

    def _fold_client(self, batch: SigmaBatch, broadcast: ClientBroadcast) -> None:
        params = self.params
        derived = broadcast.derived_commitments()
        transcript = _client_transcript(params, broadcast.client_id)
        validity = self.plan.validity
        if validity == "bit":
            batch.add_bit_proof(derived[0], broadcast.validity_proof, transcript)
        elif validity == "onehot":
            batch.add_one_hot(derived, broadcast.validity_proof, transcript)
        else:
            batch.add_bit_vector(derived, broadcast.validity_proof, transcript)

    # Shard-mergeable client state -------------------------------------------
    #
    # A sharded front-end (repro.net.shard) partitions the client stream
    # across S workers, each of which runs validate_clients +
    # fold_client_commitments on its own PublicVerifier.  These helpers
    # are the merge half: verdicts re-enter the analyst's audit record in
    # global submission order, and the per-(prover, coordinate) products
    # — abelian, so grouping is irrelevant — multiply together.

    def record_client_verdicts(self, verdicts) -> list[str]:
        """Adopt externally computed (client_id, status) verdicts in order.

        Returns the ids recorded VALID, preserving submission order —
        exactly what :meth:`validate_clients` would have returned had the
        proofs been checked here.
        """
        valid: list[str] = []
        for client_id, status in verdicts:
            self.audit.clients[client_id] = status
            if status is ClientStatus.VALID:
                valid.append(client_id)
        return valid

    def merge_client_products(
        self, partial: list[list[GroupElement | None]]
    ) -> None:
        """Fold one shard's per-(prover, coordinate) commitment products
        into the running products the Line 13 check consumes."""
        params = self.params
        if len(partial) != params.num_provers or any(
            len(row) != params.dimension for row in partial
        ):
            raise ParameterError("partial client products have the wrong shape")
        for held_row, partial_row in zip(self._client_products, partial):
            for m, element in enumerate(partial_row):
                if element is None:
                    continue
                held = held_row[m]
                held_row[m] = element if held is None else held * element

    def client_products(self) -> list[list[GroupElement | None]]:
        """The running per-(prover, coordinate) products (shard export)."""
        return [list(row) for row in self._client_products]

    def fold_client_commitments(
        self, broadcasts: list[ClientBroadcast], valid_ids: list[str]
    ) -> None:
        """Fold included clients' share commitments into the running
        per-(prover, coordinate) products the Line 13 check
        consumes — after which the broadcasts can be dropped."""
        included = set(valid_ids)
        for broadcast in broadcasts:
            if broadcast.client_id not in included:
                continue
            for k, row in enumerate(broadcast.share_commitments):
                products = self._client_products[k]
                for m, commitment in enumerate(row):
                    held = products[m]
                    products[m] = (
                        commitment.element
                        if held is None
                        else held * commitment.element
                    )

    # Phase 2: prover coin validation (Lines 5-6) ----------------------------

    def _coin_shape_ok(self, message: CoinCommitmentMessage) -> bool:
        """One proof per commitment, every row one entry per lane."""
        lanes = self.lanes
        if len(message.proofs) != len(message.commitments):
            return False
        return all(
            len(c_row) == lanes and len(p_row) == lanes
            for c_row, p_row in zip(message.commitments, message.proofs)
        )

    def _replay_coin_rows(
        self,
        transcript: Transcript,
        commitments,
        proofs,
        start: int,
    ) -> str | None:
        """Replay coin proofs one by one on ``transcript``.

        Returns None when every proof verifies, else a note naming the
        first failing coin (global index ``start + row``) — the
        pinpointing the batch path cannot do.
        """
        params = self.params
        for j, (c_row, p_row) in enumerate(zip(commitments, proofs)):
            for m, (commitment, proof) in enumerate(zip(c_row, p_row)):
                try:
                    verify_bit(params.pedersen, commitment, proof, transcript)
                except VerificationError as exc:
                    return (
                        f"coin proof rejected at coin {start + j}, coordinate {m} ({exc})"
                    )
        return None

    def _reject_coins(self, prover_id: str, note: str) -> None:
        self.audit.provers[prover_id] = ProverStatus.BAD_COIN_PROOF
        self.audit.note(f"{prover_id}: {note}")

    # Coin streams (Lines 5-6 and 12, chunk by chunk) -------------------------

    def begin_coin_stream(self, prover_id: str, context: bytes) -> None:
        """Open a chunked verification stream for one prover's coins.

        The stream shares one evolving Fiat–Shamir transcript across all
        chunks, so the accepted proofs do not depend on the chunk size.
        """
        self._coin_streams[prover_id] = _CoinStream(
            transcript=coin_transcript(self.params, prover_id, context),
            lanes=self.lanes,
        )

    def _stream_for(self, prover_id: str) -> _CoinStream:
        stream = self._coin_streams.get(prover_id)
        if stream is None:
            raise ParameterError(f"no open coin stream for {prover_id!r}")
        return stream

    def hold_coin_chunk(self, message: CoinCommitmentMessage) -> bool:
        """Take the next chunk of a prover's coin stream without checking
        its proofs: shape, count and sequence only.

        The chunk's commitments become ``pending`` — all the Morra round
        and Line 12 need — and its proofs stay owed to
        :meth:`verify_coin_chunk`, which must run before the next hold.
        """
        prover_id = message.prover_id
        stream = self._stream_for(prover_id)
        if stream.failed:
            return False
        rows = len(message.commitments)
        if (
            rows == 0
            or not self._coin_shape_ok(message)
            or stream.received + rows > self.params.nb
            or stream.pending
            or stream.unverified is not None
        ):
            stream.failed = True
            self._reject_coins(prover_id, "malformed coin chunk")
            return False
        stream.pending = message.commitments
        stream.unverified = message
        return True

    def verify_coin_chunk(self, message: CoinCommitmentMessage) -> bool:
        """Check the proofs of a prover's current chunk (one RLC multiexp).

        The engine holds a chunk, draws its Morra bits and asks the
        prover for the next chunk *before* calling this, so the check
        runs while the next chunk is being proved; a direct caller that
        held nothing gets the hold here.  A coin is committed before its
        bit is drawn either way and the proof is bound to that
        commitment, so a cheating prover is caught — and the offending
        coin named, via sequential replay from a transcript snapshot —
        one Morra round after its chunk arrives, not at the end of the
        run.
        """
        prover_id = message.prover_id
        stream = self._stream_for(prover_id)
        if stream.failed:
            return False
        if stream.unverified is not message and not self.hold_coin_chunk(message):
            return False
        stream.unverified = None
        snapshot = stream.transcript.clone()
        if self.batch:
            batch = SigmaBatch(self.params.pedersen, self.gamma_rng)
            try:
                for c_row, p_row in zip(message.commitments, message.proofs):
                    for commitment, proof in zip(c_row, p_row):
                        batch.add_bit_proof(commitment, proof, stream.transcript)
                batch.verify()
            except VerificationError:
                note = self._replay_coin_rows(
                    snapshot, message.commitments, message.proofs, start=stream.received
                )
                if note is None:  # pragma: no cover - batch/sequential divergence (bug)
                    note = "batched coin chunk rejected (sequential replay accepted)"
                stream.failed = True
                self._reject_coins(prover_id, note)
                return False
        else:
            note = self._replay_coin_rows(
                stream.transcript, message.commitments, message.proofs, start=stream.received
            )
            if note is not None:
                stream.failed = True
                self._reject_coins(prover_id, note)
                return False
        stream.received += len(message.commitments)
        return True

    def apply_public_bits_chunk(self, prover_id: str, public_bits: list[list[int]]) -> None:
        """Fold the pending chunk's Line 12 updates into the running
        per-lane products, then drop the chunk's commitments."""
        stream = self._stream_for(prover_id)
        if len(public_bits) != len(stream.pending):
            raise ParameterError("public bits do not match the pending chunk")
        group = self.params.group
        for lane in range(stream.lanes):
            keep = []
            flip = []
            for c_row, b_row in zip(stream.pending, public_bits):
                element = c_row[lane].element
                (flip if b_row[lane] == 1 else keep).append(element)
            if keep:
                folded = group.product(keep)
                held = stream.keep[lane]
                stream.keep[lane] = folded if held is None else held * folded
            if flip:
                folded = group.product(flip)
                held = stream.flip[lane]
                stream.flip[lane] = folded if held is None else held * folded
                stream.flips[lane] += len(flip)
        stream.pending = ()

    def finish_coin_stream(self, prover_id: str) -> bool:
        """Close a coin stream: all nb coins must have been verified and
        adjusted; materializes the per-lane ĉ' products for Line 13."""
        stream = self._stream_for(prover_id)
        if stream.failed:
            return False
        if stream.received != self.params.nb or stream.pending or stream.unverified is not None:
            stream.failed = True
            self._reject_coins(
                prover_id,
                f"incomplete coin stream ({stream.received}/{self.params.nb} coins)",
            )
            return False
        self._adjusted_products[prover_id] = self._materialize_line12(stream)
        del self._coin_streams[prover_id]
        return True

    def _materialize_line12(self, stream: _CoinStream) -> list[Commitment]:
        """Per-lane ĉ' product Com(k₁, 0)·Π_keep/Π_flip from fold state."""
        pedersen = self.params.pedersen
        products: list[Commitment] = []
        for lane in range(stream.lanes):
            element = (
                stream.keep[lane]
                if stream.keep[lane] is not None
                else self.params.group.identity()
            )
            if stream.flips[lane]:
                constant = pedersen.commitment_to_constant(stream.flips[lane])
                element = constant.element * element / stream.flip[lane]
            products.append(Commitment(element))
        return products

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def verify_coin_commitments(self, message: CoinCommitmentMessage, context: bytes) -> bool:
        """Open a prover's coin stream and verify ``message`` as its one chunk."""
        self.begin_coin_stream(message.prover_id, context)
        return self.verify_coin_chunk(message)

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def verify_all_coin_commitments(
        self, messages: list[CoinCommitmentMessage], context: bytes
    ) -> dict[str, bool]:
        """:meth:`verify_coin_commitments` per prover; verdicts are independent."""
        return {m.prover_id: self.verify_coin_commitments(m, context) for m in messages}

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def apply_public_bits(self, prover_id: str, public_bits: list[list[int]]) -> bool:
        """Fold the one chunk's Line 12 update and close the stream."""
        self.apply_public_bits_chunk(prover_id, public_bits)
        return self.finish_coin_stream(prover_id)

    # Shard-mergeable coin state ---------------------------------------------
    #
    # One prover's chunked stream can be verified by S shard workers: the
    # evolving Fiat–Shamir transcript is a deterministic function of the
    # public frames alone, so every shard fast-forwards the chunks it
    # does not own (pure hashing) and pays the RLC multi-exponentiation
    # only for its own.  The Line 12 fold Com(k₁,0)·Π_keep/Π_flip is a
    # product of per-chunk factors in an abelian group, so per-shard
    # partial products multiply into exactly the unsharded value.

    def skip_coin_chunk(self, prover_id: str, frame: bytes, rows: int) -> bool:
        """Fast-forward a stream over a chunk another shard verifies.

        ``frame`` is the chunk's wire encoding; the transcript absorbs
        element encodings verbatim, so the replay is pure length-prefix
        parsing plus hashing — no decoding, no group operations.
        Returns False (and fails the stream, with an audit note) when the
        frame cannot even be parsed.
        """
        from repro.crypto.serialization import advance_coin_transcript_frame

        stream = self._stream_for(prover_id)
        if stream.failed:
            return False
        try:
            advance_coin_transcript_frame(self.params, stream.transcript, frame)
        except (EncodingError, ValueError) as exc:
            stream.failed = True
            self._reject_coins(prover_id, f"undecodable chunk in stream: {exc}")
            return False
        stream.received += rows
        return True

    def partial_adjusted_products(self, prover_id: str) -> tuple[bool, list[Commitment]]:
        """One shard's Line 12 contribution: (stream healthy, per-lane
        partials).  Unlike :meth:`finish_coin_stream` there is no
        completeness check — a shard only ever sees its own chunks' folds
        — and the stream stays open."""
        stream = self._stream_for(prover_id)
        if stream.failed or stream.pending or stream.unverified is not None:
            return False, []
        return True, self._materialize_line12(stream)

    def install_adjusted_products(
        self, prover_id: str, products: list[Commitment]
    ) -> None:
        """Adopt merged Line 12 products computed by shard workers, in
        place of a locally run :meth:`finish_coin_stream`."""
        if len(products) != self.lanes:
            raise ParameterError("adjusted products do not match the plan's lanes")
        self._adjusted_products[prover_id] = list(products)
        self._coin_streams.pop(prover_id, None)

    # Phase 5: final homomorphic check (Line 13) ------------------------------

    # Pinned by benchmarks/e2e/tracer.py::TARGETS; the engine never calls it.
    def check_prover_output(
        self,
        output: ProverOutputMessage,
        client_commitments: list[list[Commitment]],
    ) -> bool:
        """Line 13 against explicit columns: ``client_commitments[m]`` lists
        the included clients' commitments to this prover's coordinate m."""
        group = self.params.group
        return self._check_output_against(
            output, [group.product(c.element for c in col) for col in client_commitments]
        )

    def check_prover_output_folded(self, output: ProverOutputMessage, prover_index: int) -> bool:
        """Line 13 against the running client products accumulated by
        :meth:`fold_client_commitments` (or merged from shards)."""
        identity = self.params.group.identity()
        products = [
            p if p is not None else identity
            for p in self._client_products[prover_index]
        ]
        return self._check_output_against(output, products)

    def _check_output_against(
        self, output: ProverOutputMessage, coordinate_products: list[GroupElement]
    ) -> bool:
        """Line 13 for one prover over per-coordinate client products.

        All L lane equations are γ-weighted into one product

            Π_l [ ĉ'_l^{Δ_l} · Π_m (Π_i c_{i,m})^{w_{l,m}} ]^{γ_l}
              · g^{-Σγ_l y_l} · h^{-Σγ_l z_l} == 1

        checked with one multi-exponentiation; a rejection replays the
        per-lane check to name the mismatching coordinate.  With
        ``batch=False`` only the per-lane products run.
        """
        params = self.params
        plan = self.plan
        lanes = plan.lanes
        prover_id = output.prover_id
        if prover_id not in self._adjusted_products:
            self.audit.provers[prover_id] = ProverStatus.ABORTED
            return False
        if (
            len(output.y) != lanes
            or len(output.z) != lanes
            or len(coordinate_products) != plan.dimension
        ):
            self.audit.provers[prover_id] = ProverStatus.FAILED_FINAL_CHECK
            return False
        q = params.q
        pedersen = params.pedersen
        adjusted = self._adjusted_products[prover_id]
        if self.batch:
            identity_plan = plan.is_identity()
            bases: list[GroupElement] = []
            exponents: list[int] = []
            coord_exps = [0] * plan.dimension
            g_exp = 0
            h_exp = 0
            for lane in range(lanes):
                gamma = 1 if lanes == 1 else self.gamma_rng.randbits(GAMMA_BITS)
                bases.append(adjusted[lane].element)
                if identity_plan:
                    # Lane l is coordinate l with unit weights — skip the
                    # O(M) zero-weight walk per lane.
                    exponents.append(gamma % q)
                    coord_exps[lane] = gamma % q
                else:
                    exponents.append((gamma * plan.noise_weights[lane]) % q)
                    for m, weight in enumerate(plan.lane_weights[lane]):
                        if weight:
                            coord_exps[m] = (coord_exps[m] + gamma * weight) % q
                g_exp = (g_exp - gamma * output.y[lane]) % q
                h_exp = (h_exp - gamma * output.z[lane]) % q
            for m, exp in enumerate(coord_exps):
                if exp:
                    bases.append(coordinate_products[m])
                    exponents.append(exp)
            combined = params.group.multi_scale(bases, exponents)
            combined = combined * pedersen.commit(g_exp, h_exp).element
            if combined.is_identity():
                self.audit.provers[prover_id] = ProverStatus.HONEST
                return True
        # Lane-by-lane: the whole check when batch=False, the pinpointing
        # replay when the combined product rejected.
        mismatch = None
        for lane in range(lanes):
            lhs = adjusted[lane].element ** plan.noise_weights[lane] if plan.noise_weights[lane] != 1 else adjusted[lane].element
            for m, weight in enumerate(plan.lane_weights[lane]):
                if weight == 1:
                    lhs = lhs * coordinate_products[m]
                elif weight:
                    lhs = lhs * (coordinate_products[m] ** weight)
            rhs = pedersen.commit(output.y[lane], output.z[lane])
            if lhs != rhs.element:
                mismatch = lane
                break
        if mismatch is None:
            if self.batch:  # pragma: no cover - batch/sequential divergence (bug)
                self.audit.provers[prover_id] = ProverStatus.FAILED_FINAL_CHECK
                self.audit.note(f"{prover_id}: combined Line 13 check rejected")
                return False
            self.audit.provers[prover_id] = ProverStatus.HONEST
            return True
        self.audit.provers[prover_id] = ProverStatus.FAILED_FINAL_CHECK
        self.audit.note(
            f"{prover_id}: commitment product mismatch on coordinate {mismatch}"
        )
        return False
