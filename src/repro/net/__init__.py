"""Transport-agnostic node layer: ΠBin as communicating processes.

The paper's setting is distributed — an analyst, K servers and n clients
exchanging commitments and Σ-proofs over a network — while the simulator
runs everything in one process over :class:`repro.mpc.bus.SimulatedNetwork`.
This package closes that gap without touching the protocol engine:

* :mod:`repro.net.transport` — a three-method :class:`Transport` interface
  (``send``/``recv``/``close`` over named peers) with in-memory,
  ``multiprocessing``-pipe and TCP-socket implementations.
* :mod:`repro.net.wire` — framing for the node protocol (setup specs, RPC
  envelopes, enrollment bundles) over the typed message registry of
  :mod:`repro.crypto.serialization`.
* :mod:`repro.net.nodes` — :class:`AnalystNode` (the one session
  skeleton: drives the unchanged :class:`repro.api.engine.ProtocolEngine`
  against :class:`RemoteProver` proxies), :class:`ServerNode` (hosts one
  real prover) and :class:`ClientRunner` (submits wire-encoded
  enrollments).
* :mod:`repro.net.shard` — sharded serving: :class:`ShardedAnalyst`
  adds the sharding hooks to that skeleton — it partitions one client
  stream across S :class:`ShardWorker` verification peers and merges
  their verdicts/products into a release byte-identical to the
  unsharded path (``python -m repro serve --shards S``).
* :mod:`repro.net.roles` — the cast every serving path shares: one
  front-end factory (S = 0 is the plain analyst), one peer launcher,
  the seed → RNG convention and the solo replay it is checked against.
* :mod:`repro.net.aio` — async serving: an :class:`AsyncSocketTransport`
  over asyncio streams (wire compatible with the blocking transport) and
  a :class:`SessionMux` front-end that multiplexes N concurrent sessions
  in one process, each driving the unchanged engine (``python -m repro
  serve --async --sessions N``).
* :mod:`repro.net.fleet` — the serving fleet: a
  :class:`FleetDispatcher` admits a stream of session requests and
  places them across a pool of :class:`SessionMux` front-end processes
  (each optionally backed by shard workers — the ``--async --shards``
  composition), with health checks, work-stealing, graceful drain and
  crash restart (``python -m repro serve --fleet``).
* :mod:`repro.net.serve` — the ``python -m repro serve`` demo driver: a
  full session as separate OS processes, byte-identical to the
  in-process path under seeded RNG.
"""

from repro.net.aio import (
    AsyncClientRunner,
    AsyncServerNode,
    AsyncSocketTransport,
    SessionChannel,
    SessionMux,
    SessionSpec,
)
from repro.net.fleet import (
    FleetConfig,
    FleetDispatcher,
    SessionOutcome,
    SessionRequest,
    run_fleet,
)
from repro.net.nodes import AnalystNode, ClientRunner, RemoteProver, ServerNode
from repro.net.serve import run_async_sessions, run_distributed_session
from repro.net.shard import ShardWorker, ShardedAnalyst
from repro.net.transport import (
    InMemoryHub,
    InMemoryTransport,
    MultiprocessTransport,
    SocketTransport,
    Transport,
    multiprocess_star,
)

__all__ = [
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "MultiprocessTransport",
    "SocketTransport",
    "multiprocess_star",
    "AnalystNode",
    "ServerNode",
    "ClientRunner",
    "RemoteProver",
    "ShardedAnalyst",
    "ShardWorker",
    "run_distributed_session",
    "run_async_sessions",
    "AsyncSocketTransport",
    "SessionChannel",
    "SessionMux",
    "SessionSpec",
    "AsyncServerNode",
    "AsyncClientRunner",
    "FleetConfig",
    "FleetDispatcher",
    "SessionRequest",
    "SessionOutcome",
    "run_fleet",
]
