"""Transport-agnostic node layer: ΠBin as communicating processes.

The paper's setting is distributed — an analyst, K servers and n clients
exchanging commitments and Σ-proofs over a network — while the simulator
runs everything in one process, its traffic only counted on the
:class:`repro.mpc.bus.SimulatedNetwork` ledger.
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
  front-end factory (S = 0 is the plain analyst), one peer launcher
  (``run_role``, the only kind of peer there is — a fleet session's
  peers are session-scoped ``run_role`` threads too), the seed → RNG
  convention and the solo replay it is checked against.
* :mod:`repro.net.serve` — the ``python -m repro serve`` demo driver: a
  full session as separate OS processes, byte-identical to the
  in-process path under seeded RNG; its ``run_distributed_session`` is
  the one session call — the CLI's, the benchmark's and each fleet
  session's — and ``session_peers`` (start the peers, accept, tear
  down) its one peer launcher.
* :mod:`repro.net.fleet` — the serving fleet, the one way to serve many
  sessions: a :class:`FleetDispatcher` admits a stream of session
  requests and places them across a pool of front-end processes
  (:mod:`repro.net.frontend`, each a blocking command loop), one CPU
  each, holding sessions in one queue until a slot is free, with
  graceful drain and crash restart (``python -m repro serve --fleet``).
  A front-end serves up to ``capacity`` sessions at once, each on a
  thread of its own through ``run_distributed_session`` as a socket
  session with peer threads, on a listener bound to that session.

The package itself imports nothing: import each name from the module
that defines it (``from repro.net.serve import run_distributed_session``),
so that loading :mod:`repro.net.wire` does not load the serving stack
(DESIGN.md "Cold start").
"""
