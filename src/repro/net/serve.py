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
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import statistics
import sys
import threading
import time
from multiprocessing import get_context

from repro.api.queries import CountQuery, HistogramQuery, Query
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort
from repro.net.aio import (
    AsyncClientRunner,
    AsyncServerNode,
    AsyncSocketTransport,
    SessionMux,
    SessionSpec,
)
from repro.net.fleet import (
    FleetConfig,
    FleetDispatcher,
    run_fleet,
    session_seed,
    session_values,
)
from repro.net.gateway import FleetGateway
from repro.net.metrics import MetricsServer, ServingMetrics
from repro.net.roles import (
    build_analyst,
    dial,
    peer_rng,
    peer_roles,
    role_names,
    root_rng,
    run_role,
    solo_release_bytes,
)
from repro.net.transport import (
    SESSION_ANY,
    InMemoryHub,
    SocketTransport,
    multiprocess_star,
)

__all__ = [
    "run_distributed_session",
    "run_async_sessions",
    "main",
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
) -> dict:
    """Run one session as separate nodes; returns a result/metrics dict.

    ``shards > 0`` serves through a :class:`ShardedAnalyst` with that
    many :class:`ShardWorker` peers (threads on the memory transport,
    processes otherwise) — verification fans out, Morra and the release
    stay single.  ``verify_equivalence`` (default: on whenever seeded)
    replays the same query through the in-process :class:`Session` with
    the same seed *and the same effective chunk size* and compares the
    wire-encoded releases byte for byte.
    """
    if transport not in _TRANSPORTS:
        raise ParameterError(f"transport must be one of {_TRANSPORTS}")
    if shards < 0:
        raise ParameterError("shards must be >= 0 (0 = unsharded front-end)")
    values = list(values)
    roles = peer_roles(num_servers, shards)
    if verify_equivalence is None:
        verify_equivalence = seed is not None

    start = time.perf_counter()
    analyst_transport, cleanup = _start_peers(
        transport, roles, query, values, seed, host, port, timeout
    )
    try:
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
    finally:
        # Close the analyst transport *before* joining children: after an
        # analyst-side abort the children sit blocked in recv, and with
        # the sockets/pipes still open they would hold them for the full
        # join timeout.  Closing first turns their recv into an immediate
        # ProtocolAbort, so cleanup reaps them promptly.
        analyst_transport.close()
        cleanup()
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
        "release": result.release,
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


def _start_peers(transport, roles, query, values, seed, host, port, timeout):
    """Start every peer of one session on ``transport``; returns the
    analyst's transport and a cleanup that joins the peers.

    The three transports differ only in how a peer gets its channel — a
    hub endpoint, an inherited pipe end, a socket it dials — and whether
    it is a thread or a forked process; every peer runs
    :func:`~repro.net.roles.run_role`.
    """
    names = [name for _, name in roles]
    spawn = get_context("fork").Process
    if transport == "memory":
        hub = InMemoryHub()
        analyst_transport = hub.endpoint("analyst")
        channels = {name: hub.endpoint(name) for name in names}
        spawn = threading.Thread
    elif transport == "multiprocess":
        analyst_transport, channels = multiprocess_star("analyst", names)
    else:
        analyst_transport = SocketTransport.listen("analyst", host, port)
        channels = {
            name: dial(name, host, analyst_transport.port) for name in names
        }
    workers = [
        spawn(
            target=run_role,
            args=(role, name, channels[name]),
            kwargs=dict(seed=seed, query=query, values=values, timeout=timeout),
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
            analyst_transport.accept(len(workers), timeout, expected=names)
    except BaseException:
        # A failed start — a fork that raises, an accept that times out
        # or is fed hostile handshakes — must not leak the children
        # already running or the listener/pipe ends: the cleanup closure
        # below is only ever returned on success.
        _terminate_processes(started)
        analyst_transport.close()
        raise

    def cleanup():
        for worker in workers:
            worker.join(timeout=30.0)
        _terminate_processes(workers)  # only a hung child is still alive

    return analyst_transport, cleanup


# Async multiplexed serving ----------------------------------------------------


def _async_server_main(
    name: str,
    host: str,
    port: int,
    seed: str | None,
    sessions: int,
    timeout: float = 60.0,
    reply_delay: float = 0.0,
) -> None:
    """Child process: one multi-session prover host over one connection."""

    async def go() -> None:
        transport = await AsyncSocketTransport.connect(name, "analyst", host, port)
        node = AsyncServerNode(
            transport,
            {s: peer_rng(session_seed(seed, s), name) for s in range(sessions)},
            timeout=timeout,
            reply_delay=reply_delay,
        )
        await node.run()
        await transport.aclose()

    asyncio.run(go())


def _async_clients_main(
    host: str,
    port: int,
    query: Query,
    values,
    seed: str | None,
    sessions: int,
    timeout: float = 60.0,
) -> None:
    """Child process: one client population per session, one connection."""

    async def go() -> None:
        transport = await AsyncSocketTransport.connect("clients", "analyst", host, port)
        runner = AsyncClientRunner(
            transport,
            {
                s: (
                    query,
                    session_values(list(values), s),
                    root_rng(session_seed(seed, s)),
                )
                for s in range(sessions)
            },
            timeout=timeout,
        )
        await runner.run()
        await transport.aclose()

    asyncio.run(go())


def _session_shards_main(
    name: str, host: str, port: int, sessions: int, timeout: float = 60.0
) -> None:
    """Child process: one blocking shard-worker thread per session, each
    over its own session-scoped connection (the worker itself is the
    unchanged single-session code — scoped channels do the routing)."""
    threads = [
        threading.Thread(
            target=run_role,
            args=("shard", name, dial(name, host, port, session=s, timeout=timeout)),
            kwargs=dict(timeout=timeout),
            daemon=True,
        )
        for s in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_async_sessions(
    query: Query,
    values,
    *,
    sessions: int = 2,
    num_servers: int = 2,
    shards: int = 0,
    group: str = "p64-sim",
    nb_override: int | None = 64,
    chunk_size: int | None = None,
    seed: str | None = "serve",
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 120.0,
    reply_delay: float = 0.0,
    verify_equivalence: bool | None = None,
    metrics: ServingMetrics | None = None,
) -> dict:
    """N concurrent sessions through one :class:`SessionMux` front-end.

    The topology is the socket one of :func:`run_distributed_session`,
    made async: K :class:`AsyncServerNode` processes (each hosting one
    prover per session over a single connection) and one
    :class:`AsyncClientRunner` process (one population per session, with
    session s's values rotated by s), all multiplexed by a single
    front-end process.  Session *s* runs under seed ``{seed}/s{s}``, and
    ``verify_equivalence`` (default: on whenever seeded) replays every
    session through a solo in-process :class:`Session` and compares the
    wire-encoded releases byte for byte.

    ``shards > 0`` backs *every* session with that many
    :class:`ShardWorker` peers — the ``--async --shards`` composition:
    one front-end multiplexes N sessions, each fanning verification
    across S session-scoped shard workers; the solo replay runs at the
    chunk size the mux reports each session actually used.

    ``reply_delay`` makes every server sleep that long before each RPC
    reply — simulated remote-prover latency, the idle time the mux
    exists to overlap (benchmark knob, zero by default).
    """
    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    if shards < 0:
        raise ParameterError("shards must be >= 0 (0 = unsharded sessions)")
    values = list(values)
    roles = peer_roles(num_servers, shards)
    server_names = role_names(roles, "server")
    shard_names = tuple(role_names(roles, "shard"))
    if verify_equivalence is None:
        verify_equivalence = seed is not None
    params = query.build_params(
        num_provers=num_servers, group=group, nb_override=nb_override
    )

    # Bind the listener before forking so children know the port; the
    # asyncio server adopts this socket inside the loop.
    listener_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener_sock.bind((host, port))
    listener_sock.listen(16)
    bound_port = listener_sock.getsockname()[1]

    context = get_context("fork")
    processes = [
        context.Process(
            target=_async_server_main,
            args=(name, host, bound_port, seed, sessions, timeout, reply_delay),
            daemon=True,
        )
        for name in server_names
    ]
    processes += [
        context.Process(
            target=_session_shards_main,
            args=(name, host, bound_port, sessions, timeout),
            daemon=True,
        )
        for name in shard_names
    ]
    processes.append(
        context.Process(
            target=_async_clients_main,
            args=(host, bound_port, query, values, seed, sessions, timeout),
            daemon=True,
        )
    )
    # Servers and clients hold one SESSION_ANY connection each; every
    # shard child holds one *scoped* connection per session.
    expected_conns = num_servers + 1 + shards * sessions

    mux_box: dict = {}
    start = time.perf_counter()

    async def front_end() -> None:
        transport = await AsyncSocketTransport.listen("analyst", sock=listener_sock)
        mux_box["transport"] = transport
        try:
            # Scope-pinned expectations: the multi-session hosts may only
            # handshake at SESSION_ANY and each shard worker only at its
            # own session, so a hostile handshake claiming an expected
            # name under an unoccupied scope (to hijack that session's
            # routing) is dropped.  Lockdown afterwards — the topology is
            # complete, late connections are not.
            await transport.accept(
                expected_conns,
                timeout,
                expected=[
                    (name, SESSION_ANY) for name in server_names + ["clients"]
                ]
                + [(name, s) for name in shard_names for s in range(sessions)],
            )
            transport.lockdown()
            specs = [
                SessionSpec(
                    query,
                    rng=root_rng(session_seed(seed, s)),
                    group=group,
                    nb_override=nb_override,
                    chunk_size=chunk_size,
                    shards=shard_names,
                )
                for s in range(sessions)
            ]
            mux = SessionMux(
                specs, transport, server_names, timeout=timeout, metrics=metrics
            )
            mux_box["mux"] = mux
            await mux.run()
        finally:
            # Unblock children before they are joined (same lifecycle rule
            # as the sync path's cleanup ordering).
            await transport.aclose()

    started: list = []
    try:
        for process in processes:
            process.start()
            started.append(process)
        asyncio.run(front_end())
    except BaseException:
        _terminate_processes(started)
        listener_sock.close()
        raise
    finally:
        for process in started:
            process.join(timeout=30.0)
        _terminate_processes(started)  # only a hung child is still alive
    elapsed = time.perf_counter() - start

    mux = mux_box["mux"]
    transport = mux_box["transport"]
    for _, error in sorted(mux.errors.items()):
        if error is not None:
            raise error
    session_rows = []
    for s, result in sorted(mux.results.items()):
        release_bytes = encode_message(result.release)
        row = {
            "session": s,
            "accepted": result.release.accepted,
            "estimate": result.release.estimate,
            "elapsed_s": mux.session_seconds[s],
            "release_bytes": len(release_bytes),
        }
        if verify_equivalence:
            row["byte_identical"] = release_bytes == solo_release_bytes(
                query,
                session_values(values, s),
                seed=session_seed(seed, s),
                num_servers=num_servers,
                group=group,
                nb_override=nb_override,
                chunk_size=mux.chunk_sizes[s],
            )
        session_rows.append(row)

    outcome = {
        "transport": "async-socket",
        "sessions": sessions,
        "num_servers": num_servers,
        "shards": shards,
        "n_clients": len(values),
        "nb": params.nb,
        "group": group,
        "chunk_size": mux.chunk_sizes[0],
        "reply_delay_s": reply_delay,
        "elapsed_s": elapsed,
        "sessions_per_sec": sessions / elapsed if elapsed else float("inf"),
        "p50_session_s": statistics.median(mux.session_seconds.values()),
        "accepted": all(row["accepted"] for row in session_rows),
        "frontend_bytes_sent": transport.bytes_sent,
        "frontend_bytes_received": transport.bytes_received,
        "frontend_frames": transport.frames_sent + transport.frames_received,
        "session_rows": session_rows,
    }
    if verify_equivalence:
        outcome["byte_identical"] = all(
            row["byte_identical"] for row in session_rows
        )
    return outcome


# CLI entry --------------------------------------------------------------------


def main(args) -> int:
    """Drive the demo from parsed CLI arguments (see ``repro.cli``).

    Exit codes are a supervisor contract shared by every serving mode:
    0 released+verified, 1 rejected or byte-mismatched, 2 bad usage,
    :data:`EXIT_PROTOCOL_ABORT` for an attributed protocol abort,
    :data:`EXIT_INFRA_CRASH` for dead infrastructure — the attributed
    party (or the failing layer) lands on stderr either way.
    """
    try:
        return _dispatch(args)
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


def _dispatch(args) -> int:
    if args.bins > 1:
        query: Query = HistogramQuery(bins=args.bins, epsilon=1.0, delta=2**-10)
        values = [i % args.bins for i in range(args.clients)]
    else:
        query = CountQuery(epsilon=1.0, delta=2**-10)
        values = [i % 2 for i in range(args.clients)]
    if getattr(args, "fleet", False):
        return _main_fleet(args, query, values)
    if getattr(args, "use_async", False):
        return _main_async(args, query, values)
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

    Yields the :class:`ServingMetrics` to feed — ``None`` without the
    flag — and closes the endpoint on exit.  Port 0 binds an ephemeral
    port; the bound port is announced on stdout either way so scrapers
    can find it.
    """
    if getattr(args, "metrics_port", None) is None:
        yield None
        return
    metrics = ServingMetrics()
    server = MetricsServer(metrics.registry, host=args.host, port=args.metrics_port)
    print(f"metrics: http://{args.host}:{server.port}/metrics", flush=True)
    try:
        yield metrics
    finally:
        server.close()


def _main_async(args, query: Query, values) -> int:
    with _metrics_endpoint(args) as metrics:
        outcome = run_async_sessions(
            query,
            values,
            sessions=args.sessions,
            num_servers=args.servers,
            shards=args.shards,
            group=args.group,
            nb_override=args.nb,
            chunk_size=args.chunk,
            seed=args.seed,
            host=args.host,
            port=args.port,
            timeout=args.timeout,
            metrics=metrics,
        )
    sharded = f", S={outcome['shards']} shards/session" if outcome["shards"] else ""
    print(
        f"== async multiplexed serving (N={outcome['sessions']} sessions, "
        f"K={outcome['num_servers']}{sharded}, "
        f"n={outcome['n_clients']} clients/session, "
        f"nb={outcome['nb']}, {outcome['group']}) =="
    )
    for row in outcome["session_rows"]:
        estimate = tuple(round(v, 2) for v in row["estimate"])
        line = (
            f"session {row['session']}: accepted={row['accepted']} "
            f"estimate={estimate} elapsed={row['elapsed_s']:.2f}s"
        )
        if "byte_identical" in row:
            line += f" byte_identical={row['byte_identical']}"
        print(line)
    print(f"wall time:         {outcome['elapsed_s']:.2f}s")
    print(f"aggregate:         {outcome['sessions_per_sec']:.2f} sessions/s")
    print(f"p50 session:       {outcome['p50_session_s']:.2f}s")
    print(
        "front-end traffic: "
        f"{outcome['frontend_bytes_sent']} B out, "
        f"{outcome['frontend_bytes_received']} B in, "
        f"{outcome['frontend_frames']} frames"
    )
    if "byte_identical" in outcome:
        print(
            "byte-identical to solo in-process Sessions: "
            f"{outcome['byte_identical']}"
        )
        if not outcome["byte_identical"]:
            return 1
    return 0 if outcome["accepted"] else 1


def _main_fleet(args, query: Query, values) -> int:
    if getattr(args, "fleet_config", None):
        config = FleetConfig.from_file(args.fleet_config)
    else:
        config = FleetConfig(
            frontends=args.frontends,
            capacity=args.capacity,
            shards=args.shards,
            num_servers=args.servers,
            group=args.group,
            nb_override=args.nb,
            chunk_size=args.chunk,
            host=args.host,
            timeout=args.timeout,
        )
    if getattr(args, "listen", None) is not None:
        return _main_fleet_gateway(args, query, config)
    with _metrics_endpoint(args) as metrics:
        outcome = run_fleet(
            query,
            values,
            sessions=args.sessions,
            config=config,
            seed=args.seed,
            metrics=metrics,
        )
    sharded = f", S={outcome['shards']} shards/session" if outcome["shards"] else ""
    print(
        f"== fleet serving (F={outcome['frontends']} front-ends x "
        f"capacity {outcome['capacity']}{sharded}, "
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
        f"restarts={sum(outcome['restarts'].values())} "
        f"stolen={outcome['stolen']}"
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
    """``repro serve --fleet --listen PORT``: serve an open-ended session
    stream admitted over TCP (the ``repro loadgen`` target) instead of a
    fixed batch.  Runs until ``--serve-seconds`` elapses (or forever,
    Ctrl-C to stop), then drains: everything admitted finishes, nothing
    new is let in."""
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
            serve_seconds = getattr(args, "serve_seconds", None)
            try:
                if serve_seconds is not None:
                    time.sleep(serve_seconds)
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
