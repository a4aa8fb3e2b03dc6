"""The phase-driven protocol engine behind :class:`repro.api.Session`.

One :class:`ProtocolEngine` executes one ΠBin instance — a counting
query, a histogram, or a weighted-lane (bounded-sum) query, as described
by its :class:`~repro.core.plan.AggregationPlan` — over the
:mod:`repro.core.messages` types, charging its traffic to the
:mod:`repro.mpc.bus` ledger.  It is an explicit phase machine
(:mod:`repro.api.phases`) with one pipeline, parameterised by
``chunk_size``.

Clients are accepted in chunks and coins are verified in chunks: client
validity proofs fold into per-chunk Σ-batches and running Line 13
products, coin proofs fold into a per-prover evolving transcript with
per-chunk RLC checks, and Line 12 products accumulate as chunks retire.
Each coin is committed strictly before its Morra bit is drawn, and
chunking only reorders *independent* messages, so soundness does not
depend on the chunk size.

The coin phase is a two-stage pipeline over one flat schedule of
(prover, chunk) steps: a step collects its chunk, holds it (shape, count,
sequence), draws its Morra bits, folds Line 12 — and asks for the *next*
step's chunk before it checks this one's proofs, so a prover behind a
wire proves chunk c+1 while chunk c is verified here.  The Σ-OR proof is
non-interactive and bound to the commitment it arrived with, so checking
it after the Morra round proves the same statement; a cheating prover is
named one round later and has had one more request answered.

Two more requests leave early.  A chunk request names the Morra round
its bits will take (:meth:`Prover.request_coin_chunk`), so a remote
prover samples and commits its contributions right after proving and
the round costs the analyst one round trip, not three.  And prover k+1's
stream is opened, its first chunk asked for, when prover k's starts, so
it proves that chunk while prover k's stream runs; the verifier's own
``begin_coin_stream`` stays where the prover's stream is taken up.  Every
party still sees the call sequence of the lock-step order (an in-process
prover's request is a no-op, its ``begin_coin_stream`` only resets
state), so no frame, byte, draw or phase transition moves.

``chunk_size=None`` is one chunk of every client and all nb coins.  Every
party draws from its own RNG stream, so its seeded release bytes are
those of any chunk size that covers the run
(``tests/api/test_chunk_equivalence.py``), and they are pinned across
commits (``tests/api/golden_releases.json``).  A one-chunk run folds
nothing away before the release, so it is also the run that retains its
public messages for third-party bulletin replay.  ``chunk_size=n`` drops
each chunk once folded — peak verifier memory is O(chunk), nothing
proportional to nb or to the client count is kept — which is what lets
the paper-scale nb = 262,144 workload run on a laptop
(``python -m repro streaming`` prints the streamed and one-chunk peaks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.phases import Phase, advance
from repro.core.messages import (
    ClientBroadcast,
    ClientShareMessage,
    ProverStatus,
    Release,
)
from repro.core.params import PublicParams
from repro.core.plan import AggregationPlan
from repro.core.prover import ContextAccumulator, Prover
from repro.core.verifier import PublicVerifier
from repro.errors import ParameterError, ProtocolAbort, SessionStateError
from repro.mpc.bus import SimulatedNetwork
from repro.mpc.morra import run_morra_batch
from repro.utils.rng import RNG, SystemRNG
from repro.utils.timing import StageTimer

__all__ = [
    "ProtocolEngine",
    "EngineResult",
    "fork_rng",
    "add_phase_observer",
    "remove_phase_observer",
]

# Stage names aligned with Table 1's columns.
STAGE_SIGMA_PROOF = "sigma-proof"
STAGE_SIGMA_VERIFY = "sigma-verification"
STAGE_MORRA = "morra"
STAGE_AGGREGATION = "aggregation"
STAGE_CHECK = "check"
STAGE_CLIENT_PROOF = "client-proof"
STAGE_CLIENT_VERIFY = "client-verification"


def fork_rng(rng: RNG, label: str) -> RNG:
    """A per-party child stream (system randomness when not forkable)."""
    forker = getattr(rng, "fork", None)
    return forker(label) if forker is not None else SystemRNG()


# Phase-transition observers: the observability layer (repro.net.metrics)
# hooks engine phase timings here without the engine importing it.  Each
# observer is called as ``observer(previous_phase, new_phase, elapsed_s)``
# where ``elapsed_s`` is the wall-clock time the engine spent in
# ``previous_phase`` (per transition, so the COMMIT_COINS -> MORRA ->
# ADJUST loop yields one observation per prover per chunk).
# Observers run on the engine's thread and must be cheap and non-raising.
_PHASE_OBSERVERS: list = []


def add_phase_observer(observer) -> None:
    """Register a ``(previous, new, elapsed_s)`` phase-transition callback."""
    _PHASE_OBSERVERS.append(observer)


def remove_phase_observer(observer) -> None:
    """Unregister a previously added phase observer (no-op if absent)."""
    try:
        _PHASE_OBSERVERS.remove(observer)
    except ValueError:
        pass


@dataclass
class EngineResult:
    """One protocol run's release plus run metadata.

    One-chunk runs (``chunk_size=None``) retain the public messages
    (``broadcasts``, the provers' ``complaints``, ``coin_messages``,
    ``public_bits``) so the run can be published for byte-level
    third-party audit replay (:func:`repro.core.bulletin.publish_run`);
    chunked runs drop them — that is the point — and keep only the
    outputs, release and audit record.
    """

    release: Release
    timer: StageTimer
    network: SimulatedNetwork
    client_count: int
    plan: AggregationPlan
    public_bits: dict[str, list[list[int]]] = field(default_factory=dict)
    broadcasts: list = field(default_factory=list)
    coin_messages: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    complaints: dict[str, list[str]] = field(default_factory=dict)

    def to_bulletin(self, params: PublicParams):
        """Serialize this run's public messages onto a bulletin board.

        Only an identity-plan run (count, histogram) can be published:
        the board carries no aggregation plan, and :func:`replay_audit`
        replays the identity one."""
        from repro.core.bulletin import publish_run

        if not self.plan.is_identity():
            raise ParameterError(
                "a v1 bulletin board carries no aggregation plan: only an "
                "identity-plan run (count, histogram) can be published"
            )
        return publish_run(
            params,
            self.broadcasts,
            self.coin_messages,
            self.public_bits,
            self.outputs,
            self.complaints,
        )


class ProtocolEngine:
    """Phase machine executing one ΠBin instance, its traffic on a ledger."""

    def __init__(
        self,
        params: PublicParams,
        *,
        plan: AggregationPlan | None = None,
        provers: list[Prover] | None = None,
        verifier: PublicVerifier | None = None,
        rng: RNG | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError("chunk_size must be positive")
        self.params = params
        self.plan = plan if plan is not None else AggregationPlan.identity(params.dimension)
        if self.plan.dimension != params.dimension:
            raise ParameterError("plan dimension does not match params dimension")
        self.rng = rng if rng is not None else SystemRNG()
        self.chunk_size = chunk_size
        # One chunk (chunk_size=None) never folds a message away before the
        # release, so it is also the run that keeps its public messages.
        self._retain = chunk_size is None
        if provers is None:
            provers = [
                Prover(f"prover-{k}", params, fork_rng(self.rng, f"prover-{k}"), plan=self.plan)
                for k in range(params.num_provers)
            ]
        if len(provers) != params.num_provers:
            raise ParameterError(
                f"expected {params.num_provers} provers, got {len(provers)}"
            )
        names = [p.name for p in provers]
        if len(set(names)) != len(names) or "verifier" in names:
            raise ParameterError("prover names must be unique and not 'verifier'")
        self.provers = provers
        self.verifier = verifier or PublicVerifier(
            params, fork_rng(self.rng, "verifier"), plan=self.plan
        )
        self.network = SimulatedNetwork()
        for name in [self.verifier.name] + names:
            self.network.register(name)
        self.timer = StageTimer()
        self.phase = Phase.ENROLL
        self._phase_entered = time.perf_counter()

        # Client-phase state.
        self._context = ContextAccumulator()
        self._client_count = 0
        self._chunk_entries: list[tuple[ClientBroadcast, list[ClientShareMessage]]] = []
        # Public messages, kept only when ``_retain``.
        self._broadcasts: list[ClientBroadcast] = []
        self._complaints: dict[str, list[str]] = {}
        self._coin_messages: list = []
        self._public_bits: dict[str, list[list[int]]] = {}
        self._result: EngineResult | None = None

    # Phase bookkeeping ------------------------------------------------------

    def _advance(self, target: Phase) -> None:
        previous = self.phase
        self.phase = advance(self.phase, target)
        now = time.perf_counter()
        elapsed = now - self._phase_entered
        self._phase_entered = now
        # Wall-clock per phase, alongside Table 1's work-stage timings:
        # ``phase:<name>`` accumulates across the coin phase's chunk laps.
        self.timer.add(f"phase:{previous.value}", elapsed)
        for observer in list(_PHASE_OBSERVERS):
            observer(previous, self.phase, elapsed)

    @property
    def client_count(self) -> int:
        """How many clients have enrolled so far (valid or not)."""
        return self._client_count

    def _require(self, phase: Phase, what: str) -> None:
        if self.phase is not phase:
            raise SessionStateError(
                f"{what} requires phase {phase.value!r}, session is in {self.phase.value!r}"
            )

    # ENROLL -----------------------------------------------------------------

    def submit_clients(self, clients) -> None:
        """Enroll :class:`~repro.core.client.Client` objects (any iterable).

        Every ``chunk_size`` enrollments are processed immediately —
        validation, audit verdicts, Line 13 folds — and dropped; with
        ``chunk_size=None`` the one chunk closes at :meth:`run_release`.
        """
        self._require(Phase.ENROLL, "submit")
        for client in clients:
            # Unconditional: a duplicate client id is a ParameterError —
            # a client must not enroll twice.
            self.network.register(client.name)
            with self.timer.stage(STAGE_CLIENT_PROOF):
                broadcast, privates = client.submit(self.params)
            self._enroll(broadcast, privates)

    def submit_prepared(self, pairs) -> None:
        """Enroll pre-built submissions: (broadcast, [share message per
        prover]) pairs, as a real serving deployment would receive them."""
        self._require(Phase.ENROLL, "submit")
        for broadcast, privates in pairs:
            self.network.register(broadcast.client_id)
            self._enroll(broadcast, list(privates))

    # Sharded enrollment ------------------------------------------------------
    #
    # A sharded front-end (repro.net.shard) validates clients on shard
    # workers and routes private shares itself; the engine still owns the
    # client-phase state every later phase depends on — the client
    # registry and the broadcast-context digest that binds all coin
    # transcripts.  This hook lets the front-end feed it without the
    # engine re-verifying anything, while RNG consumption stays exactly
    # that of an unsharded run (the hook draws nothing), which is what
    # keeps sharded releases byte-identical.

    def adopt_enrollment(self, broadcast: ClientBroadcast) -> None:
        """Record an enrollment whose validation happens elsewhere:
        context digest, client registry and count only.  Raises
        ``ParameterError`` on a duplicate or reserved client id, exactly
        as :meth:`submit_prepared` would."""
        self._require(Phase.ENROLL, "submit")
        self.network.register(broadcast.client_id)
        self._context.absorb(broadcast)
        self._client_count += 1

    def _enroll(
        self, broadcast: ClientBroadcast, privates: list[ClientShareMessage]
    ) -> None:
        if len(privates) != self.params.num_provers:
            raise ParameterError("one private share message per prover required")
        self.network.broadcast(broadcast.client_id, broadcast)
        for prover, message in zip(self.provers, privates):
            self.network.send(broadcast.client_id, prover.name, message)
        self._context.absorb(broadcast)
        self._client_count += 1
        self._chunk_entries.append((broadcast, privates))
        if self.chunk_size is not None and len(self._chunk_entries) >= self.chunk_size:
            self._process_client_chunk()

    def _process_client_chunk(self) -> None:
        """Validate one chunk of enrollments and fold it away."""
        entries = self._chunk_entries
        self._chunk_entries = []
        if not entries:
            return
        complaints: dict[str, list[str]] = {}
        for k, prover in enumerate(self.provers):
            bad = [
                broadcast.client_id
                for broadcast, privates in entries
                if not prover.receive_client_share(broadcast, privates[k], k)
            ]
            if bad:
                complaints[prover.name] = bad
        broadcasts = [broadcast for broadcast, _ in entries]
        if self._retain:
            self._broadcasts = broadcasts
            self._complaints = complaints
        with self.timer.stage(STAGE_CLIENT_VERIFY):
            valid = self.verifier.validate_clients(broadcasts, complaints)
        self.verifier.fold_client_commitments(broadcasts, valid)
        valid_set = set(valid)
        invalid = [b.client_id for b in broadcasts if b.client_id not in valid_set]
        for prover in self.provers:
            prover.absorb_validated_clients(valid, discard=invalid)

    # The protocol body ------------------------------------------------------

    def run_release(self) -> EngineResult:
        """Drive the remaining phases to DONE and return the result.

        Idempotent: once the run completes, the cached result is returned.
        """
        if self._result is not None:
            return self._result
        self._require(Phase.ENROLL, "release")
        # VALIDATE: close the last client chunk, which finalizes the
        # public client record and the context digest.
        self._advance(Phase.VALIDATE)
        self._process_client_chunk()
        coin_ok = self._coin_phases(self._context.digest())
        self._advance(Phase.RELEASE)
        release, outputs = self._assemble_release(coin_ok)
        self._advance(Phase.DONE)
        self._result = EngineResult(
            release=release,
            timer=self.timer,
            network=self.network,
            client_count=self._client_count,
            plan=self.plan,
            public_bits=self._public_bits,
            broadcasts=self._broadcasts,
            coin_messages=self._coin_messages,
            outputs=outputs,
            complaints=self._complaints,
        )
        return self._result

    def _coin_phases(self, context: bytes) -> dict[str, bool]:
        """Lines 4–9 as one flat schedule of (prover, chunk) steps: collect
        the chunk → hold it → Morra → fold Line 12 → ask for the next
        step's chunk → only then check this chunk's proofs → drop it."""
        nb = self.params.nb
        chunk = self.chunk_size or nb
        lanes = self.plan.lanes
        verifier = self.verifier
        provers = self.provers
        per_prover = -(-nb // chunk)
        steps = per_prover * len(provers)
        asked = -1

        def coins(step: int) -> int:
            return min(chunk, nb - step % per_prover * chunk)

        def ask(step: int) -> None:
            # The chunk and the Morra round its bits will take.
            count = coins(step)
            provers[step // per_prover].request_coin_chunk(count, count * lanes)

        def open_stream(k: int) -> None:
            if k < len(provers):
                provers[k].begin_coin_stream(context)
                ask(k * per_prover)

        def request(step: int) -> None:
            # Asking for a chunk is what enters COMMIT_COINS, so the check
            # of the chunk before it runs inside that phase, overlapped
            # with the proving.  Past the last step there is nothing to ask
            # for: the last check of the run stays in ADJUST.
            nonlocal asked
            if step == asked or step == steps:
                return
            asked = step
            k, c = divmod(step, per_prover)
            self._advance(Phase.COMMIT_COINS)
            if c:
                ask(step)
                return
            # A prover's stream is opened when the one before it starts,
            # so it proves its first chunk while that stream runs.
            if k == 0:
                open_stream(0)
            open_stream(k + 1)
            verifier.begin_coin_stream(provers[k].name, context)

        coin_ok: dict[str, bool] = {}
        step = 0
        while step < steps:
            # Already asked for while the step before was being checked —
            # unless this is the first step, or follows a given-up stream.
            request(step)
            prover = provers[step // per_prover]
            count = coins(step)
            last = (step + 1) % per_prover == 0
            with self.timer.stage(STAGE_SIGMA_PROOF):
                message = prover.commit_coin_chunk(count)
            self.network.broadcast(prover.name, message)
            if self._retain:
                self._coin_messages.append(message)
            # The chunk schedule is the engine's: a chunk of any other
            # size is the prover's fault, not a crash two steps later.
            if len(message.commitments) != count:
                ok = False
                verifier.audit.provers[prover.name] = ProverStatus.BAD_COIN_PROOF
                verifier.audit.note(
                    f"{prover.name}: coin chunk is not the {count} coins asked for"
                )
            else:
                ok = verifier.hold_coin_chunk(message)
            if ok:
                self._draw_chunk_bits(prover, count)
                # The request leaves before the check: a remote prover
                # proves its next chunk on its own core while this one is
                # verified here.
                request(step + 1)
                with self.timer.stage(STAGE_SIGMA_VERIFY):
                    ok = verifier.verify_coin_chunk(message)
                    if ok and last:
                        ok = verifier.finish_coin_stream(prover.name)
            if ok and not last:
                step += 1
                continue
            # The prover's stream is over, complete or given up (a reply it
            # still owes to a request is its proxy's to settle).
            coin_ok[prover.name] = ok
            step = (step // per_prover + 1) * per_prover
        return coin_ok

    def _draw_chunk_bits(self, prover: Prover, count: int) -> None:
        """Lines 7–9 and 12 for the held chunk: Morra, then both folds."""
        lanes = self.plan.lanes
        self._advance(Phase.MORRA)
        with self.timer.stage(STAGE_MORRA):
            outcome = run_morra_batch(
                [prover, self.verifier],
                self.params.q,
                count * lanes,
                network=self.network,
            )
            flat = outcome.bits()
        bits = [flat[j * lanes : (j + 1) * lanes] for j in range(count)]
        if self._retain:
            self._public_bits[prover.name] = bits
        self._advance(Phase.ADJUST)
        with self.timer.stage(STAGE_CHECK):
            self.verifier.apply_public_bits_chunk(prover.name, bits)
        prover.absorb_public_bits(bits)

    def _assemble_release(self, coin_ok: dict[str, bool]):
        """Lines 10–13 plus aggregation into the public release."""
        params = self.params
        q = params.q
        lanes = self.plan.lanes
        verifier = self.verifier
        outputs: dict[str, object] = {}
        all_outputs = []
        for k, prover in enumerate(self.provers):
            if not coin_ok.get(prover.name):
                continue
            with self.timer.stage(STAGE_AGGREGATION):
                try:
                    output = prover.finish_output()
                except ProtocolAbort as exc:
                    verifier.audit.provers[prover.name] = ProverStatus.ABORTED
                    verifier.audit.note(str(exc))
                    continue
            all_outputs.append(output)
            self.network.broadcast(prover.name, output)
            with self.timer.stage(STAGE_CHECK):
                if verifier.check_prover_output_folded(output, k):
                    outputs[prover.name] = output

        audit = verifier.audit
        accepted = (
            len(audit.provers) == len(self.provers) and audit.all_provers_honest()
        )
        raw = tuple(
            sum(outputs[name].y[lane] for name in outputs) % q if outputs else 0
            for lane in range(lanes)
        )
        noise_means = self.plan.noise_mean(params.num_provers, params.nb)
        estimate = tuple(value - mean for value, mean in zip(raw, noise_means))
        release = Release(
            raw=raw,
            estimate=estimate,
            accepted=accepted,
            audit=audit,
            epsilon=params.epsilon,
            delta=params.delta,
        )
        return release, all_outputs
