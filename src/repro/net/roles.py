"""The cast of a served session: one front-end factory, one peer launcher.

Every serving path — ``run_distributed_session``'s solo session and
each of a fleet worker's concurrent ones — runs the same cast: an
analyst front-end (sharded when S > 0, which only the solo session is),
K prover servers, S shard workers and one client runner.  The paths
differ only in *where* a role runs (a thread or a forked process) and
*how* it reaches the analyst (a hub endpoint, an inherited pipe end, a
dialled socket, scoped to its session when a worker serves several).
Every peer there is runs :func:`run_role`.  This module holds what they share, once:

* :func:`build_analyst` — the front-end for S shards (S = 0 is the plain
  :class:`~repro.net.nodes.AnalystNode`);
* :func:`run_role` — build a role's node on a transport, run it, close it;
* :func:`peer_roles` / :func:`role_names` — the cast list and its
  naming convention;
* :func:`root_rng` / :func:`peer_rng` — the seed → RNG convention that
  makes a seeded distributed release byte-identical to the in-process one;
* :func:`solo_release_bytes` — that in-process release, for comparison.
"""

from __future__ import annotations

from repro.api.queries import Query
from repro.api.session import Session
from repro.crypto.serialization import encode_message
from repro.errors import ReproError
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode
from repro.net.shard import ShardedAnalyst, ShardWorker
from repro.net.transport import SocketTransport, Transport, resolve
from repro.utils.rng import RNG, SeededRNG, SystemRNG

__all__ = [
    "build_analyst",
    "run_role",
    "peer_roles",
    "role_names",
    "dial",
    "root_rng",
    "peer_rng",
    "solo_release_bytes",
]


def root_rng(seed: str | None) -> RNG:
    """A session's root stream: the analyst's and the client runner's."""
    return SeededRNG(seed) if seed is not None else SystemRNG()


def peer_rng(seed: str | None, name: str) -> RNG:
    # Matches the in-process engine: prover k draws from root.fork(name).
    return SeededRNG(seed).fork(name) if seed is not None else SystemRNG()


def peer_roles(num_servers: int, shards: int) -> list[tuple[str, str]]:
    """``(role, peer name)`` for every peer of one session, in start order."""
    return (
        [("server", f"prover-{k}") for k in range(num_servers)]
        + [("shard", f"shard-{j}") for j in range(shards)]
        + [("clients", "clients")]
    )


def role_names(roles: list[tuple[str, str]], role: str) -> list[str]:
    """The peer names in ``roles`` that play ``role``."""
    return [name for played, name in roles if played == role]


def build_analyst(query: Query, transport: Transport, servers, shards=(), **options):
    """The front-end for S = ``len(shards)``; "unsharded" is just S = 0.
    ``options`` are :class:`~repro.net.nodes.AnalystNode`'s keywords."""
    if shards:
        return ShardedAnalyst(query, transport, servers, list(shards), **options)
    return AnalystNode(query, transport, servers, **options)


def dial(name: str, host: str, port: int, *, session: int = 0, timeout=30.0):
    """A deferred ``SocketTransport.connect`` to the analyst, for
    :func:`run_role` to open inside the peer's own thread or process.

    The address is looked up here, in the process that dials: a forked
    peer then connects without a lookup of its own, which would import
    ``encodings.idna`` (≈ 5 ms) in every child, inside the front-end's
    ``accept`` wait."""
    addresses = resolve(host, port)
    return lambda: SocketTransport.connect(
        name, "analyst", host, port, session=session, timeout=timeout, addresses=addresses
    )


def run_role(
    role: str,
    name: str,
    transport,
    *,
    seed: str | None = None,
    query: Query | None = None,
    values=(),
    timeout: float = 60.0,
) -> None:
    """Build ``role``'s node on ``transport``, run it, close the transport.

    The one entry point of every peer thread and child process.
    ``transport`` is a ready :class:`Transport` (hub endpoint, inherited
    pipe end) or a zero-argument callable that opens one (:func:`dial`);
    a front-end that is already gone when the peer dials is not an error.
    A :class:`ReproError` ends the peer quietly: whatever went wrong, the
    front-end sees this peer fall silent and attributes it.
    """
    if callable(transport):
        try:
            transport = transport()
        except OSError:
            return
    try:
        if role == "server":
            rng = peer_rng(seed, name)
            node = ServerNode(transport, rng, timeout=timeout)
        elif role == "shard":
            node = ShardWorker(transport, timeout=timeout)
        else:
            node = ClientRunner(
                transport, query, values, rng=root_rng(seed), timeout=timeout
            )
        node.run()
    except ReproError:
        pass
    finally:
        transport.close()


def solo_release_bytes(
    query: Query, values, *, seed: str, num_servers: int, group, nb_override, chunk_size
) -> bytes:
    """The wire-encoded release of the same session run in process under
    the same seed and chunking — what every seeded distributed release
    must equal byte for byte."""
    session = Session(
        query,
        num_provers=num_servers,
        group=group,
        nb_override=nb_override,
        chunk_size=chunk_size,
        rng=root_rng(seed),
    )
    session.submit(values)
    return encode_message(session.release().release)
