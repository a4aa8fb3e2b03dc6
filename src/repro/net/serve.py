"""The multi-process serving demo behind ``python -m repro serve``.

Runs one full verifiable-DP session as real communicating nodes — the
analyst front-end in the calling process/thread, one
:class:`~repro.net.nodes.ServerNode` per prover and one
:class:`~repro.net.nodes.ClientRunner` for the population — over any of
the three transports:

* ``memory``      — node threads over :class:`InMemoryTransport`,
* ``multiprocess``— separate OS processes over ``multiprocessing`` pipes,
* ``socket``      — separate OS processes over localhost TCP.

With a seed, the distributed release is compared byte-for-byte against
the in-process :class:`repro.api.Session` release — the equivalence the
redesign promises (same engine, same RNG streams, different substrate).

Many sessions at once are served by ``python -m repro fleet``
(:func:`fleet_main`, :func:`repro.net.fleet.run_fleet`): F front-end
processes behind one dispatcher, each serving up to ``capacity``
sessions at once, every one of them through
:func:`run_distributed_session` — the one session call — as a socket
session bound to its session id with its peers as threads;
``fleet --frontends 1`` is one front-end.  Each command has its own
argparse parser (``repro.cli``), so a flag given to the other one is
argparse's usage error before anything is served.

Each driver imports the serving stack it runs inside its own body, in
the calling process before any fork, so importing this module loads no
transport, event loop or HTTP server, and a forked peer compiles
nothing (DESIGN.md "Cold start").
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import typing

from repro.api.queries import CountQuery, HistogramQuery, Query
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort

if typing.TYPE_CHECKING:
    from repro.net.fleet import FleetConfig

__all__ = [
    "run_distributed_session",
    "main",
    "fleet_main",
    "EXIT_PROTOCOL_ABORT",
    "EXIT_INFRA_CRASH",
]

_TRANSPORTS = ("memory", "multiprocess", "socket")

# Distinct exit codes so a supervisor (the fleet dispatcher's restart
# logic, a CI job, an init system) can tell a protocol-level rejection
# from dead infrastructure without parsing stderr.  0 = released and
# verified, 1 = released but rejected/mismatched, 2 = usage error
# (argparse's convention, shared by ParameterError), then:
EXIT_PROTOCOL_ABORT = 3  # a party broke the protocol; stderr names it
EXIT_INFRA_CRASH = 4  # sockets/processes/unexpected exceptions died


def _terminate_processes(workers) -> None:
    """Best-effort teardown of started peers on a failure path (threads
    cannot be terminated; closing the analyst transport unblocks them)."""
    processes = [worker for worker in workers if hasattr(worker, "terminate")]
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)


def run_distributed_session(
    query: Query,
    values,
    *,
    transport: str = "multiprocess",
    num_servers: int = 2,
    shards: int = 0,
    group: str = "p64-sim",
    nb_override: int | None = 64,
    chunk_size: int | None = None,
    seed: str | None = "serve",
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 120.0,
    verify_equivalence: bool | None = None,
    session: int = 0,
    threads: bool = False,
) -> dict:
    """Run one session as separate nodes; returns a result/metrics dict.

    ``shards > 0`` serves through a :class:`ShardedAnalyst` with that
    many :class:`ShardWorker` peers (threads on the memory transport,
    processes otherwise) — verification fans out, Morra and the release
    stay single.  ``verify_equivalence`` (default: on whenever seeded)
    replays the same query through the in-process :class:`Session` with
    the same seed *and the same effective chunk size* and compares the
    wire-encoded releases byte for byte.

    A fleet front-end serves each of its sessions through this call:
    ``session`` scopes the socket listener and every peer's handshake to
    one session id, and ``threads`` runs the peers as threads of the
    calling process.
    """
    from repro.net.roles import (
        build_analyst,
        peer_roles,
        role_names,
        root_rng,
        solo_release_bytes,
    )

    if transport not in _TRANSPORTS:
        raise ParameterError(f"transport must be one of {_TRANSPORTS}")
    if shards < 0:
        raise ParameterError("shards must be >= 0 (0 = unsharded front-end)")
    values = list(values)
    roles = peer_roles(num_servers, shards)
    if verify_equivalence is None:
        verify_equivalence = seed is not None

    start = time.perf_counter()
    with session_peers(
        transport,
        roles,
        query,
        values,
        seed,
        host,
        port,
        timeout,
        session=session,
        threads=threads,
    ) as analyst_transport:
        analyst = build_analyst(
            query,
            analyst_transport,
            role_names(roles, "server"),
            role_names(roles, "shard"),
            group=group,
            nb_override=nb_override,
            chunk_size=chunk_size,
            rng=root_rng(seed),
            timeout=timeout,
        )
        result = analyst.run()
    elapsed = time.perf_counter() - start

    release_bytes = encode_message(result.release)
    outcome = {
        "transport": transport,
        "num_servers": num_servers,
        "shards": shards,
        "n_clients": len(values),
        "nb": analyst.params.nb,
        "group": group,
        "chunk_size": analyst.chunk_size,
        "accepted": result.release.accepted,
        "estimate": result.release.estimate,
        "elapsed_s": elapsed,
        "frontend_bytes_sent": analyst_transport.bytes_sent,
        "frontend_bytes_received": analyst_transport.bytes_received,
        "frontend_frames": analyst_transport.frames_sent
        + analyst_transport.frames_received,
        "release_bytes": len(release_bytes),
        "release_frame": release_bytes,
        "release": result.release,
        # Engine stage timings, ``phase:*`` entries included.
        "stages": dict(result.timer.stages),
    }

    if verify_equivalence:
        outcome["byte_identical"] = release_bytes == solo_release_bytes(
            query,
            values,
            seed=seed,
            num_servers=num_servers,
            group=group,
            nb_override=nb_override,
            chunk_size=analyst.chunk_size,
        )
    return outcome


@contextlib.contextmanager
def session_peers(
    transport,
    roles,
    query,
    values,
    seed,
    host,
    port,
    timeout,
    *,
    session: int = 0,
    threads: bool = False,
):
    """Start every peer of one session on ``transport``; yields the
    analyst's transport.

    The three transports differ only in how a peer gets its channel — a
    hub endpoint, an inherited pipe end, a socket it dials — and whether
    it is a thread or a forked process; every peer runs
    :func:`~repro.net.roles.run_role`.  On ``socket`` the listener and
    every handshake are bound to ``session``; ``threads`` makes the peers
    threads of this process (a memory peer always is one).

    A failed start — a fork that raises, an accept that times out or is
    fed hostile handshakes — stops the children already running and
    closes the listener or pipe ends before it is re-raised.  Whatever
    fails inside the block, every peer is told to stop
    (:func:`~repro.net.nodes.abort_peers`) before it is re-raised.  On
    the way out the analyst transport is closed *before* the peers are
    joined: after an analyst-side abort a peer may sit blocked in recv,
    and closing first turns that recv into an immediate ProtocolAbort (a
    pipe peer holds no copy of the analyst's ends, see
    :func:`_own_pipe_only`), so the join reaps it promptly.
    """
    from multiprocessing import get_context

    from repro.net.nodes import abort_peers
    from repro.net.roles import dial, run_role
    from repro.net.transport import InMemoryHub, SocketTransport, multiprocess_star

    names = [name for _, name in roles]
    spawn = threading.Thread if threads else get_context("fork").Process
    target = run_role
    if transport == "memory":
        hub = InMemoryHub()
        analyst_transport = hub.endpoint("analyst")
        channels = {name: hub.endpoint(name) for name in names}
        spawn = threading.Thread
    elif transport == "multiprocess":
        analyst_transport, channels = multiprocess_star("analyst", names)
        target = _own_pipe_only(run_role, [analyst_transport, *channels.values()])
    else:
        analyst_transport = SocketTransport.listen(
            "analyst", host, port, session=session
        )
        channels = {
            name: dial(name, host, analyst_transport.port, session=session)
            for name in names
        }
    options = dict(seed=seed, query=query, values=values, timeout=timeout)
    workers = [
        spawn(
            target=target,
            args=(role, name, channels[name]),
            kwargs=options,
            name=name,
            daemon=True,
        )
        for role, name in roles
    ]
    started: list = []
    try:
        for worker in workers:
            worker.start()
            started.append(worker)
        if transport == "multiprocess":
            # The child ends of the pipes belong to the children now.
            for channel in channels.values():
                channel.close()
        elif transport == "socket":
            analyst_transport.accept(
                len(workers), timeout, expected=[(name, session) for name in names]
            )
            analyst_transport.stop_listening()
    except BaseException:
        _terminate_processes(started)
        analyst_transport.close()
        raise
    try:
        yield analyst_transport
    except BaseException as exc:
        abort_peers(analyst_transport, names, str(exc))
        raise
    finally:
        analyst_transport.close()
        for worker in workers:
            worker.join(timeout=30.0)
        _terminate_processes(workers)  # only a hung child is still alive


def _own_pipe_only(run, inherited: list):
    """``run`` for a forked pipe peer, which first closes every pipe end it
    inherited but its own ``channel``.  A pipe reports EOF only once every
    copy of the far end is closed, so while the peers hold copies of the
    analyst's ends the analyst's close never reaches them."""

    def peer_main(role, name, channel, **kwargs):
        for transport in inherited:
            if transport is not channel:
                transport.close()
        run(role, name, channel, **kwargs)

    return peer_main


# CLI entry --------------------------------------------------------------------


def main(args) -> int:
    """Drive ``repro serve`` — one session — from parsed CLI arguments
    (see ``repro.cli``).

    Exit codes are a supervisor contract shared with ``repro fleet``
    (:func:`fleet_main`): 0 released+verified, 1 rejected or
    byte-mismatched, 2 bad usage, :data:`EXIT_PROTOCOL_ABORT` for an
    attributed protocol abort, :data:`EXIT_INFRA_CRASH` for dead
    infrastructure — the attributed party (or the failing layer) lands
    on stderr either way.
    """
    return _exit_code(_main_session, args)


def fleet_main(args) -> int:
    """Drive ``repro fleet`` — many sessions at once — from parsed CLI
    arguments, with :func:`main`'s exit codes."""
    return _exit_code(_main_fleet, args)


def _exit_code(drive, args) -> int:
    """Run ``drive(args, query, values)`` on the demo population and map
    what it raises to the exit-code contract."""
    try:
        if args.bins > 1:
            query: Query = HistogramQuery(bins=args.bins, epsilon=1.0, delta=2**-10)
            values = [i % args.bins for i in range(args.clients)]
        else:
            query = CountQuery(epsilon=1.0, delta=2**-10)
            values = [i % 2 for i in range(args.clients)]
        return drive(args, query, values)
    except ProtocolAbort as exc:
        party = exc.party if exc.party is not None else "unattributed"
        print(f"protocol abort (party: {party}): {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_ABORT
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # repro: allow[REP004] -- top-level supervisor boundary: unexpected failures map to EXIT_INFRA_CRASH with the type on stderr
        print(f"infrastructure crash: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFRA_CRASH


def _main_session(args, query: Query, values) -> int:
    outcome = run_distributed_session(
        query,
        values,
        transport=args.transport,
        num_servers=args.servers,
        shards=args.shards,
        group=args.group,
        nb_override=args.nb,
        chunk_size=args.chunk,
        seed=args.seed,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
    )
    sharded = f", S={outcome['shards']} shards" if outcome["shards"] else ""
    print(
        f"== distributed session ({outcome['transport']}, "
        f"K={outcome['num_servers']}{sharded}, n={outcome['n_clients']}, "
        f"nb={outcome['nb']}, {outcome['group']}) =="
    )
    print(f"accepted:          {outcome['accepted']}")
    print(f"estimate:          {tuple(round(v, 2) for v in outcome['estimate'])}")
    print(f"elapsed:           {outcome['elapsed_s']:.2f}s")
    print(
        "front-end traffic: "
        f"{outcome['frontend_bytes_sent']} B out, "
        f"{outcome['frontend_bytes_received']} B in, "
        f"{outcome['frontend_frames']} frames"
    )
    print(f"release frame:     {outcome['release_bytes']} B")
    if "byte_identical" in outcome:
        print(f"byte-identical to in-process Session: {outcome['byte_identical']}")
        if not outcome["byte_identical"]:
            return 1
    return 0 if outcome["accepted"] else 1


@contextlib.contextmanager
def _metrics_endpoint(args):
    """Optional /metrics endpoint for a serving run (``--metrics-port``).

    Yields the :class:`~repro.net.metrics.ServingMetrics` to feed —
    ``None`` without the flag — and closes the endpoint on exit.  Port 0 binds an ephemeral
    port; the bound port is announced on stdout either way so scrapers
    can find it.
    """
    if args.metrics_port is None:
        yield None
        return
    from repro.net.metrics import MetricsServer, ServingMetrics

    metrics = ServingMetrics()
    server = MetricsServer(metrics.registry, host=args.host, port=args.metrics_port)
    print(f"metrics: http://{args.host}:{server.port}/metrics", flush=True)
    try:
        yield metrics
    finally:
        server.close()


def _main_fleet(args, query: Query, values) -> int:
    from repro.cli import FLEET_BATCH_SESSIONS
    from repro.net.fleet import FleetConfig, run_fleet

    if args.serve_seconds is not None and args.listen is None:
        raise ParameterError("--serve-seconds requires --listen")
    config = FleetConfig(
        frontends=args.frontends,
        capacity=args.capacity,
        num_servers=args.servers,
        group=args.group,
        nb_override=args.nb,
        chunk_size=args.chunk,
        host=args.host,
        timeout=args.timeout,
    )
    if args.listen is not None:
        return _main_fleet_gateway(args, query, config)
    with _metrics_endpoint(args) as metrics:
        outcome = run_fleet(
            query,
            values,
            sessions=FLEET_BATCH_SESSIONS if args.sessions is None else args.sessions,
            config=config,
            seed=args.seed,
            metrics=metrics,
        )
    print(
        f"== fleet serving (F={outcome['frontends']} front-ends x "
        f"capacity {outcome['capacity']}, "
        f"K={outcome['num_servers']}, N={outcome['sessions']} sessions, "
        f"n={outcome['n_clients']} clients/session, "
        f"nb={outcome['nb']}, {outcome['group']}) =="
    )
    for row in outcome["session_rows"]:
        if row["status"] == "released":
            estimate = tuple(round(v, 2) for v in row["estimate"])
            line = (
                f"session {row['session']} [{row['frontend']}]: released "
                f"accepted={row['accepted']} estimate={estimate} "
                f"elapsed={row['elapsed_s']:.2f}s"
            )
            if "byte_identical" in row:
                line += f" byte_identical={row['byte_identical']}"
        else:
            line = (
                f"session {row['session']} [{row['frontend']}]: "
                f"{row['status']} ({row.get('reason')})"
            )
        print(line)
    print(f"wall time:         {outcome['elapsed_s']:.2f}s")
    print(f"aggregate:         {outcome['sessions_per_sec']:.2f} sessions/s")
    print(
        f"fleet health:      released={outcome['released']} "
        f"aborted={outcome['aborted']} crashed={outcome['crashed']} "
        f"restarts={sum(outcome['restarts'].values())}"
    )
    print(f"front-ends used:   {', '.join(outcome['frontends_used']) or 'none'}")
    if "byte_identical" in outcome:
        print(
            "byte-identical to solo in-process Sessions: "
            f"{outcome['byte_identical']}"
        )
        if not outcome["byte_identical"]:
            return 1
    if outcome["released"] < outcome["sessions"]:
        return 1
    return 0 if outcome["accepted"] else 1


def _main_fleet_gateway(args, query: Query, config: FleetConfig) -> int:
    """``repro fleet --listen PORT``: serve an open-ended session
    stream admitted over TCP (the ``repro loadgen`` target) instead of a
    fixed batch.  Runs until ``--serve-seconds`` elapses (or forever,
    Ctrl-C to stop), then drains: everything admitted finishes, nothing
    new is let in."""
    from repro.net.fleet import FleetDispatcher
    from repro.net.gateway import FleetGateway

    with _metrics_endpoint(args) as metrics:
        dispatcher = FleetDispatcher(config, metrics=metrics)
        dispatcher.start()
        gateway = None
        try:
            gateway = FleetGateway(
                dispatcher,
                query,
                host=args.host,
                port=args.listen,
                timeout=config.timeout,
            )
            print(
                f"fleet gateway: {args.host}:{gateway.port} "
                f"(F={config.frontends} x capacity {config.capacity}, "
                f"K={config.num_servers}, nb={config.nb_override}, "
                f"{config.group})",
                flush=True,
            )
            try:
                if args.serve_seconds is not None:
                    time.sleep(args.serve_seconds)
                else:
                    while True:
                        time.sleep(1.0)
            except KeyboardInterrupt:
                pass
            admitted = gateway.admitted
            gateway.close()
            drained = dispatcher.drain(timeout=config.timeout)
        finally:
            if gateway is not None:
                gateway.close()  # idempotent
            dispatcher.stop()
    statuses: dict[str, int] = {}
    for outcome in dispatcher.outcomes.values():
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    print(
        f"gateway summary: admitted={admitted} "
        f"released={statuses.get('released', 0)} "
        f"aborted={statuses.get('aborted', 0)} "
        f"crashed={statuses.get('crashed', 0)} "
        f"drained={drained}"
    )
    return 0 if drained else EXIT_INFRA_CRASH
