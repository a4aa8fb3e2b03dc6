"""The seven workloads: sizes, seeded inputs, ops and their checks.

Importing this module imports ``repro``; the runner does that inside its
timed set-up stage.  Everything here drives public entry points only —
``repro.api.Session``, ``repro.core.bulletin.replay_audit``,
``repro.net.serve.run_distributed_session`` and
``FleetDispatcher`` + ``FleetGateway`` — and hands the program nothing
but generated values and ``Client`` objects.

A workload object goes through ``setup()`` (timed by the runner as
``setup_s``), ``prepare()`` (untimed inputs that need the program: a
published board, planted clients), any number of ``op(i)`` calls (each
timed as one ``session_s`` sample) and ``check(records)``.  ``op``
returns ``(timed_seconds, record)``; the record is a small dict the check
stage reads, extracted after the clock stopped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

from repro.api import CountQuery, HistogramQuery, Session
from repro.core.bulletin import replay_audit
from repro.core.client import Client, InconsistentShareClient, NotOneHotClient
from repro.crypto.serialization import encode_message
from repro.net.fleet import FleetConfig, FleetDispatcher
from repro.net.gateway import FleetGateway
from repro.net.serve import run_distributed_session
from repro.utils.rng import SeededRNG

import closedloop

__all__ = ["Spec", "FULL", "SMOKE", "build", "WrongSumClient", "check_common"]

K = 2  # provers / servers in every workload
EPSILON = 1.0
DELTA = 2.0**-10
FLEET_DISTINCT = 8  # distinct (seed, population) pairs the fleet sessions cycle through
FLEET_CALLERS = 2  # closed-loop callers = nproc of the host the workloads were sized on


@dataclass(frozen=True)
class Spec:
    """One workload's size and shape."""

    name: str
    kind: str  # "session" | "audit" | "distributed" | "fleet"
    group: str
    nb: int
    clients: int
    bins: int = 1  # 1 = CountQuery, > 1 = HistogramQuery(bins)
    chunk: int | None = None
    planted: bool = False
    transport: str = ""
    shards: int = 0

    @property
    def query(self):
        if self.bins > 1:
            return HistogramQuery(self.bins, EPSILON, DELTA)
        return CountQuery(EPSILON, DELTA)

    def warm(self) -> "Spec":
        """The set-up stage's warm-up op: same shape at nb <= 32."""
        nb = min(self.nb, 32)
        chunk = None if self.chunk is None else min(self.chunk, nb)
        return dataclasses.replace(
            self, nb=nb, chunk=chunk, clients=min(self.clients, 6 if self.planted else 4)
        )


# Sized on a 2-core host so an op takes 0.15-0.5 s and the 8 s measured
# region holds 15-35 of them (fleet: ~85); see README.md for why these
# are smaller than the sizes ISSUE 11 first proposed.
FULL = {
    spec.name: spec
    for spec in [
        Spec("curve-release", "session", "ristretto255", nb=32, clients=8),
        Spec("stream-release", "session", "p64-sim", nb=1024, clients=32, chunk=128),
        Spec("client-histogram", "session", "ristretto255", nb=2, clients=8, bins=4, planted=True),
        Spec("audit-replay", "audit", "ristretto255", nb=32, clients=8),
        Spec("socket-session", "distributed", "p128-sim", nb=256, clients=16, chunk=64, transport="socket"),
        Spec("sharded-session", "distributed", "p128-sim", nb=256, clients=16, chunk=64, transport="multiprocess", shards=2),
        Spec("fleet-closed", "fleet", "p64-sim", nb=128, clients=16),
    ]
}

SMOKE = {
    spec.name: spec
    for spec in [
        Spec("curve-release", "session", "ristretto255", nb=4, clients=3),
        Spec("stream-release", "session", "p64-sim", nb=64, clients=8, chunk=16),
        Spec("client-histogram", "session", "ristretto255", nb=1, clients=6, bins=3, planted=True),
        Spec("audit-replay", "audit", "ristretto255", nb=4, clients=3),
        Spec("socket-session", "distributed", "p128-sim", nb=32, clients=4, chunk=8, transport="socket"),
        Spec("sharded-session", "distributed", "p128-sim", nb=32, clients=4, chunk=8, transport="multiprocess", shards=2),
        Spec("fleet-closed", "fleet", "p64-sim", nb=16, clients=4),
    ]
}


class WrongSumClient(Client):
    """Honest shares, one-hot proof with the summed randomness off by one.

    It passes every per-proof structural check and fails only the
    combined group equation, so it is what sends the batch verifier down
    its sequential pinpoint path (the shipped ``NotOneHotClient`` is
    already rejected while staging, before any batch is verified).
    """

    def submit(self, params):
        broadcast, privates = super().submit(params)
        proof = broadcast.validity_proof
        bad = dataclasses.replace(
            proof, randomness_sum=(proof.randomness_sum + 1) % params.q
        )
        return dataclasses.replace(broadcast, validity_proof=bad), privates


# Shared helpers ---------------------------------------------------------------


def _values(spec: Spec, seed: str) -> list[int]:
    """The client population, from the seed alone (no program code)."""
    rng = random.Random(f"{seed}/{spec.name}/values")
    return [rng.randrange(max(2, spec.bins)) for _ in range(spec.clients)]


def _new_session(spec: Spec, seed: str, chunk) -> Session:
    return Session(
        spec.query,
        num_provers=K,
        group=spec.group,
        nb_override=spec.nb,
        chunk_size=chunk,
        rng=SeededRNG(seed),
    )


def _solo_release(spec: Spec, values, seed: str, chunk) -> bytes:
    """The reference: the same seeded session run alone in-process."""
    session = _new_session(spec, seed, chunk)
    session.submit(values)
    return encode_message(session.release().release)


def _tolerance(spec: Spec) -> float:
    """Six standard deviations of the K·nb fair coins in a release."""
    return 6.0 * math.sqrt(K * spec.nb / 4.0)


def _release_record(release, wire_bytes: int) -> dict:
    audit = release.audit
    return {
        "release": encode_message(release),
        "accepted": release.accepted,
        "estimate": tuple(release.estimate),
        "clients": {cid: status.value for cid, status in audit.clients.items()},
        "provers": {pid: status.value for pid, status in audit.provers.items()},
        "wire_bytes": wire_bytes,
    }


def _truth(spec: Spec, values, excluded=()) -> list[int]:
    """The true aggregate per release lane over the included clients."""
    kept = [v for i, v in enumerate(values) if i not in excluded]
    if spec.bins == 1:
        return [sum(kept)]
    return [sum(1 for v in kept if v == m) for m in range(spec.bins)]


def check_common(spec: Spec, records, truth, planted=None) -> list[tuple]:
    """Checks every release-producing workload shares; returns failures
    as ``(op index or None, message)``.

    Each record must be accepted by all-honest provers, name exactly the
    planted clients (none by default) as excluded, land within
    ``6·sqrt(K·nb/4)`` of the true aggregate on every lane, and be
    byte-identical to the first record.
    """
    planted = planted or {}
    tolerance = _tolerance(spec)
    failures = []
    for i, record in enumerate(records):
        if not record["accepted"]:
            failures.append((i, "release not accepted"))
        if len(record["provers"]) != K or set(record["provers"].values()) != {"honest"}:
            failures.append((i, f"prover verdicts {record['provers']}"))
        named = {c: s for c, s in record["clients"].items() if s != "valid"}
        if named != planted:
            failures.append((i, f"excluded clients {named}, planted {planted}"))
        for lane, (estimate, true) in enumerate(zip(record["estimate"], truth)):
            if abs(estimate - true) > tolerance:
                failures.append(
                    (i, f"lane {lane} estimate {estimate} vs true {true} (tolerance {tolerance:.1f})")
                )
        if record["release"] != records[0]["release"]:
            failures.append((i, "release bytes differ from op 0"))
    return failures


class Workload:
    """Base: parameters, the client-cost probe, and the warm-up op."""

    def __init__(self, spec: Spec, seed: str) -> None:
        self.spec = spec
        self.seed = f"{seed}/{spec.name}"
        self.values = _values(spec, seed)
        self.params = None

    def build_params(self) -> None:
        self.params = self.spec.query.build_params(
            num_provers=K, group=self.spec.group, nb_override=self.spec.nb
        )

    def setup(self) -> None:
        self.build_params()
        warm = type(self)(self.spec.warm(), self.seed + "/warm")
        warm.build_params()
        warm.prepare()
        warm.op(0)

    def prepare(self) -> None:
        """Untimed inputs that need the program (default: none)."""

    def live_pids(self) -> list[int]:
        """Children that outlive an op (their CPU is read from /proc)."""
        return []

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def _probe(self, index: int):
        """One honest client of this workload's query (seeded)."""
        name = f"probe-{index}"
        value = random.Random(f"{self.seed}/{name}").randrange(max(2, self.spec.bins))
        return self.spec.query.make_client(name, value, SeededRNG(f"{self.seed}/{name}"))

    def probe_client(self, index: int) -> float:
        """Seconds of one honest ``Client.submit`` at this workload's
        parameters, timed by the runner (``client_submit_ms``)."""
        client = self._probe(index)
        start = time.perf_counter()
        client.submit(self.params)
        return time.perf_counter() - start

    def upload_bytes(self) -> int:
        """Encoded broadcast + K share messages of one honest client."""
        broadcast, privates = self._probe(0).submit(self.params)
        return len(encode_message(broadcast)) + sum(
            len(encode_message(message)) for message in privates
        )

    def release_digest(self, records) -> str:
        """What golden.json pins for this workload and seed."""
        return hashlib.sha256(records[0]["release"]).hexdigest()

    def reference_ops(self, count: int) -> list[float]:
        """Seconds of ``count`` runs of the same spec as a solo in-process
        session (the traced pass's base for ``net.serve.overhead_ratio``)."""
        seconds = []
        for _ in range(count):
            start = time.perf_counter()
            _solo_release(self.spec, self.values, self.seed, self.spec.chunk)
            seconds.append(time.perf_counter() - start)
        return seconds


class SessionWorkload(Workload):
    """In-process ``Session``: construct -> submit -> release."""

    # Fixed positions of the planted clients and what each must be named.
    def _planted(self) -> dict[int, tuple[type, str]]:
        if not self.spec.planted:
            return {}
        n = self.spec.clients
        return {
            1: (NotOneHotClient, "invalid-proof"),
            n // 2: (InconsistentShareClient, "bad-opening"),
            n - 2: (WrongSumClient, "invalid-proof"),
        }

    def _inputs(self) -> list:
        """Raw values, with fresh seeded malformed clients at the planted
        positions (client objects carry RNG state, so every op gets new
        ones and all reps do identical work)."""
        inputs = list(self.values)
        bins = self.spec.bins
        for position, (kind, _) in self._planted().items():
            name = f"client-{position}"
            choice = self.values[position]
            hot = {choice, (choice + 1) % bins} if kind is NotOneHotClient else {choice}
            vector = [1 if m in hot else 0 for m in range(bins)]
            inputs[position] = kind(name, vector, rng=SeededRNG(f"{self.seed}/{name}"))
        return inputs

    def op(self, index: int):
        inputs = self._inputs()
        start = time.perf_counter()
        session = _new_session(self.spec, self.seed, self.spec.chunk)
        session.submit(inputs)
        result = session.release()
        elapsed = time.perf_counter() - start
        engine_result = result.results[0].engine_result
        return elapsed, _release_record(result.release, engine_result.network.total_bytes())

    def check(self, records) -> list[tuple]:
        planted = {f"client-{p}": status for p, (_, status) in self._planted().items()}
        truth = _truth(self.spec, self.values, excluded=set(self._planted()))
        return check_common(self.spec, records, truth, planted)


class AuditWorkload(Workload):
    """``replay_audit`` over a board published once from a seeded run."""

    def prepare(self) -> None:
        session = _new_session(self.spec, self.seed, None)
        session.submit(self.values)
        result = session.release()
        self.original = _release_record(result.release, 0)
        self.board = result.results[0].engine_result.to_bulletin(session.params)

    def op(self, index: int):
        start = time.perf_counter()
        audit = replay_audit(self.params, self.board)
        elapsed = time.perf_counter() - start
        clients = {cid: status.value for cid, status in audit.clients.items()}
        provers = {pid: status.value for pid, status in audit.provers.items()}
        verdicts = json.dumps([clients, provers, audit.notes], sort_keys=True).encode()
        record = dict(self.original, release=verdicts, clients=clients, provers=provers)
        record["wire_bytes"] = self.board.total_bytes()
        return elapsed, record

    def check(self, records) -> list[tuple]:
        truth = _truth(self.spec, self.values)
        failures = check_common(self.spec, [self.original], truth)
        failures += check_common(self.spec, records, truth)
        for i, record in enumerate(records):
            if (record["clients"], record["provers"]) != (
                self.original["clients"],
                self.original["provers"],
            ):
                failures.append((i, "replayed verdicts differ from the original verifier's"))
        return failures


class DistributedWorkload(Workload):
    """``run_distributed_session``: analyst here, K servers + clients
    (+ shards) as child processes, spawned and reaped inside the op."""

    def op(self, index: int):
        spec = self.spec
        start = time.perf_counter()
        outcome = run_distributed_session(
            spec.query,
            self.values,
            transport=spec.transport,
            num_servers=K,
            shards=spec.shards,
            group=spec.group,
            nb_override=spec.nb,
            chunk_size=spec.chunk,
            seed=self.seed,
            verify_equivalence=False,
        )
        elapsed = time.perf_counter() - start
        record = _release_record(
            outcome["release"],
            outcome["frontend_bytes_sent"] + outcome["frontend_bytes_received"],
        )
        record["chunk_size"] = outcome["chunk_size"]
        record["bytes_sent"] = outcome["frontend_bytes_sent"]
        record["bytes_received"] = outcome["frontend_bytes_received"]
        record["frames"] = outcome["frontend_frames"]
        return elapsed, record

    def check(self, records) -> list[tuple]:
        failures = check_common(self.spec, records, _truth(self.spec, self.values))
        solo = _solo_release(self.spec, self.values, self.seed, records[0]["chunk_size"])
        if records[0]["release"] != solo:
            failures.append((0, "release differs from the solo seeded Session replay"))
        return failures


class FleetWorkload(Workload):
    """Closed-loop callers against a ``FleetGateway`` over a
    ``FleetDispatcher``; the whole measured region is one ``run`` call."""

    dispatcher = None
    gateway = None

    def setup(self) -> None:
        self.build_params()
        spec = self.spec
        config = FleetConfig(
            frontends=2,
            capacity=2,
            num_servers=K,
            group=spec.group,
            nb_override=spec.nb,
        )
        self.dispatcher = FleetDispatcher(config).start()
        self.gateway = FleetGateway(self.dispatcher, spec.query)
        self._references: dict[int, str] = {}
        (self.warmup,) = self.run(max_ops=1, callers=1, first=-1)
        if self.warmup["reply"].get("status") != "released":
            raise RuntimeError(f"fleet warm-up session failed: {self.warmup['reply']}")

    def live_pids(self) -> list[int]:
        return [worker.process.pid for worker in self.dispatcher.workers.values()]

    def close(self) -> None:
        # FleetGateway.close() is deliberately not called: it joins its
        # accept thread, which on Linux stays blocked in accept() after
        # the listener is closed, so close() always costs its full 5 s
        # join timeout.  The gateway's threads are daemons and hold no
        # child process; the dispatcher owns those and is stopped here.
        if self.dispatcher is not None:
            self.dispatcher.drain(timeout=30.0)
            self.dispatcher.stop()

    def _session(self, index: int) -> tuple[str, list[int]]:
        slot = index % FLEET_DISTINCT
        shift = slot % len(self.values)
        return f"{self.seed}/c{slot}", self.values[shift:] + self.values[:shift]

    def _line(self, index: int) -> bytes:
        seed, values = self._session(index)
        payload = {"op": "session", "id": index, "values": values, "seed": seed}
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()

    def run(self, *, seconds=None, max_ops=None, callers: int = FLEET_CALLERS, first: int = 0):
        """Drive the gateway closed-loop; returns the per-op samples."""
        return closedloop.run_closed_loop(
            self.gateway.host,
            self.gateway.port,
            self._line,
            callers=callers,
            seconds=seconds,
            max_ops=max_ops,
            first=first,
        )

    def gateway_counters(self) -> dict:
        gateway = self.gateway
        return {
            "admitted": gateway.admitted,
            "rejected": gateway.rejected,
            "bytes": gateway.bytes_received + gateway.bytes_sent,
        }

    def _reference(self, slot: int) -> str:
        """SHA-256 of the solo seeded Session release of one distinct session."""
        if slot not in self._references:
            seed, values = self._session(slot)
            self._references[slot] = hashlib.sha256(
                _solo_release(self.spec, values, seed, self.spec.chunk)
            ).hexdigest()
        return self._references[slot]

    def check(self, samples) -> list[tuple]:
        failures = []
        expected: Counter = Counter()
        tolerance = _tolerance(self.spec)
        for sample in [self.warmup, *samples]:
            index, reply = sample["index"], sample["reply"]
            if reply.get("status") != "released" or not reply.get("accepted"):
                failures.append((index, f"not released: {reply}"))
                continue
            truth = sum(self._session(index)[1])
            if abs(reply["estimate"][0] - truth) > tolerance:
                failures.append((index, f"estimate {reply['estimate']} vs true {truth}"))
            expected[self._reference(index % FLEET_DISTINCT)] += 1
        # The gateway's reply lines carry no release bytes; the
        # dispatcher's outcomes do, keyed by ids the gateway assigned, so
        # the comparison is between multisets of digests.
        served = Counter(
            hashlib.sha256(outcome.release_frame).hexdigest()
            for outcome in self.dispatcher.outcomes.values()
            if outcome.release_frame is not None
        )
        if served != expected:
            failures.append(
                (None, f"served release digests {dict(served)} differ from the solo-replay references {dict(expected)}")
            )
        if self.dispatcher.restarts:
            failures.append((None, f"front-end restarts: {self.dispatcher.restarts}"))
        return failures

    def release_digest(self, samples) -> str:
        digest = hashlib.sha256()
        for slot in range(FLEET_DISTINCT):
            digest.update(self._reference(slot).encode())
        return digest.hexdigest()


_KINDS = {
    "session": SessionWorkload,
    "audit": AuditWorkload,
    "distributed": DistributedWorkload,
    "fleet": FleetWorkload,
}


def build(name: str, seed: str, smoke: bool = False) -> Workload:
    spec = (SMOKE if smoke else FULL)[name]
    return _KINDS[spec.kind](spec, seed)
