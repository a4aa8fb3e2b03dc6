"""Executable versions of the paper's attacks (Figure 1 and Section 1).

Three attacks, each against the vulnerable baseline and against ΠBin:

* **Exclusion** (Figure 1a): a corrupted server makes an honest client
  fail validation, erasing its vote.  In PRIO/Poplar the honest server
  "cannot distinguish between an honest run and a corrupted run"; in
  ΠBin the dropped commitment breaks the Line 13 product and the server
  is named.
* **Collusion** (Figure 1b, footnote 6): a dishonest client leaks its
  sketch mask and peer-share to a corrupted server, which publishes the
  exact complement of the honest server's messages, admitting an illegal
  input (e.g. 3 votes at once).  In ΠBin the client's Σ-OR proof cannot
  be forged, so the input is publicly rejected no matter what any server
  does.
* **Noise biasing** (Section 1's motivating attack): a malicious curator
  shifts the tally and blames DP noise.  Statistically invisible for
  shifts within the noise scale; ΠBin rejects it deterministically.

Each function returns an :class:`AttackOutcome` so tests and the CLI can
assert/print the contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api.engine import ProtocolEngine
from repro.baselines.prio import CorruptPrioServer, PrioSystem
from repro.baselines.trusted_curator import MaliciousCurator, NonVerifiableCurator
from repro.core.client import Client, NonBinaryClient, encode_choice
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.params import setup
from repro.core.prover import InputDroppingProver, OutputTamperingProver, Prover
from repro.utils.rng import RNG, SeededRNG, default_rng

__all__ = [
    "AttackOutcome",
    "exclusion_attack_on_prio",
    "exclusion_attack_on_pibin",
    "collusion_attack_on_prio",
    "collusion_attack_on_pibin",
    "noise_biasing_on_curator",
    "noise_biasing_on_pibin",
]

_TEST_GROUP = "p128-sim"


@dataclass(frozen=True)
class AttackOutcome:
    """What happened when the attack ran."""

    system: str
    attack: str
    succeeded: bool  # did the adversary achieve its goal?
    detected: bool  # did any honest party (or the public) notice?
    culprit: str | None  # who the audit names, if anyone
    details: str


# ---------------------------------------------------------------------------
# Figure 1(a): exclusion of an honest client.
# ---------------------------------------------------------------------------


def exclusion_attack_on_prio(
    n_clients: int = 20, victim: str = "client-0", rng: RNG | None = None
) -> AttackOutcome:
    """Corrupted PRIO server fails the victim's sketch; nobody can tell."""
    rng = rng or SeededRNG("fig1a-prio")
    q = 2**127 - 1  # any large modulus works for the baseline
    dimension = 2
    system = PrioSystem(dimension, q, epsilon=1.0, delta=2**-10, rng=rng)
    corrupt = CorruptPrioServer(
        "server-1",
        1,
        system.sketch,
        system.nb,
        rng=rng,
        drop_clients=frozenset({victim}),
    )
    system.servers = (system.servers[0], corrupt)
    submissions = [
        system.submit(f"client-{i}", encode_choice(i % dimension, dimension), rng)
        for i in range(n_clients)
    ]
    result = system.run(submissions)
    succeeded = victim not in result.accepted_clients
    return AttackOutcome(
        system="prio",
        attack="fig1a-exclusion",
        succeeded=succeeded,
        detected=False,  # the sketch verdict looks like an ordinary client failure
        culprit=None,
        details=(
            f"victim excluded={succeeded}; accepted {len(result.accepted_clients)}"
            f"/{n_clients} clients; the public sees only 'sketch failed'"
        ),
    )


def exclusion_attack_on_pibin(
    n_clients: int = 12, victim: str = "client-0", rng: RNG | None = None
) -> AttackOutcome:
    """The same goal inside ΠBin: the dropping prover fails Line 13."""
    rng = rng or SeededRNG("fig1a-pibin")
    params = setup(1.0, 2**-10, num_provers=2, group=_TEST_GROUP, nb_override=32)
    provers = [
        Prover("prover-0", params, rng.fork("p0")),
        InputDroppingProver("prover-1", params, rng.fork("p1"), victim=victim),
    ]
    engine = ProtocolEngine(params, provers=provers, rng=rng)
    clients = [
        Client(f"client-{i}", [i % 2], rng.fork(f"c{i}")) for i in range(n_clients)
    ]
    engine.submit_clients(clients)
    result = engine.run_release()
    audit = result.release.audit
    detected = audit.provers.get("prover-1") is ProverStatus.FAILED_FINAL_CHECK
    victim_included = audit.clients.get(victim) is ClientStatus.VALID
    return AttackOutcome(
        system="pibin",
        attack="fig1a-exclusion",
        succeeded=result.release.accepted and not victim_included,
        detected=detected,
        culprit="prover-1" if detected else None,
        details=(
            f"release accepted={result.release.accepted}; victim still publicly "
            f"valid={victim_included}; audit={audit.provers}"
        ),
    )


# ---------------------------------------------------------------------------
# Figure 1(b): collusion admits an illegal input.
# ---------------------------------------------------------------------------


def collusion_attack_on_prio(
    n_clients: int = 20, rng: RNG | None = None
) -> AttackOutcome:
    """Dishonest client (3 votes in one bin) + corrupted server: accepted."""
    rng = rng or SeededRNG("fig1b-prio")
    q = 2**127 - 1
    dimension = 2
    system = PrioSystem(dimension, q, epsilon=1.0, delta=2**-10, rng=rng)
    cheater_id = "client-evil"
    illegal_vector = [3, 0]  # three votes for bin 0
    packages = system.sketch.client_prepare(illegal_vector, rng)
    # The dishonest client leaks its server-0 package to corrupted server 1.
    corrupt = CorruptPrioServer(
        "server-1",
        1,
        system.sketch,
        system.nb,
        rng=rng,
        collude_with={cheater_id: (packages[0], 0)},
    )
    system.servers = (system.servers[0], corrupt)
    submissions = [
        system.submit(f"client-{i}", encode_choice(i % dimension, dimension), rng)
        for i in range(n_clients)
    ]
    from repro.baselines.prio import PrioClientSubmission

    submissions.append(PrioClientSubmission(cheater_id, packages))
    result = system.run(submissions)
    succeeded = cheater_id in result.accepted_clients
    return AttackOutcome(
        system="prio",
        attack="fig1b-collusion",
        succeeded=succeeded,
        detected=False,
        culprit=None,
        details=(
            f"illegal 3-vote input accepted={succeeded}; bin-0 estimate inflated by 3; "
            "honest server's view is consistent with an honest run"
        ),
    )


def collusion_attack_on_pibin(
    n_clients: int = 12, rng: RNG | None = None
) -> AttackOutcome:
    """ΠBin: the illegal input cannot carry a valid Σ-OR proof — rejected."""
    rng = rng or SeededRNG("fig1b-pibin")
    params = setup(1.0, 2**-10, num_provers=2, group=_TEST_GROUP, nb_override=32)
    engine = ProtocolEngine(params, rng=rng)
    clients: list[Client] = [
        Client(f"client-{i}", [i % 2], rng.fork(f"c{i}")) for i in range(n_clients)
    ]
    cheater = NonBinaryClient("client-evil", [3], rng.fork("evil"))
    clients.append(cheater)
    engine.submit_clients(clients)
    result = engine.run_release()
    audit = result.release.audit
    status = audit.clients.get("client-evil")
    rejected = status is ClientStatus.INVALID_PROOF
    return AttackOutcome(
        system="pibin",
        attack="fig1b-collusion",
        succeeded=not rejected,
        detected=rejected,
        culprit="client-evil" if rejected else None,
        details=f"cheating client status={status}; release accepted={result.release.accepted}",
    )


# ---------------------------------------------------------------------------
# Noise biasing: the paper's motivating attack.
# ---------------------------------------------------------------------------


def noise_biasing_on_curator(
    n_clients: int = 1000,
    bias: float = 15.0,
    epsilon: float = 1.0,
    delta: float = 2**-10,
    rng: RNG | None = None,
) -> AttackOutcome:
    """A malicious curator shifts the count by ``bias`` "noise".

    Reports the z-score of the released value under the *honest* noise
    distribution: for bias around one noise standard deviation the release
    is statistically unremarkable — the perfect alibi.
    """
    rng = default_rng(rng or SeededRNG("noise-bias"))
    dataset = [1 if i % 3 == 0 else 0 for i in range(n_clients)]
    curator = MaliciousCurator(
        NonVerifiableCurator.binomial(epsilon, delta).mechanism, bias=bias
    )
    release = curator.release_count(dataset, rng)
    true_count = sum(dataset)
    nb = curator.mechanism.nb  # type: ignore[attr-defined]
    noise_std = math.sqrt(nb) / 2.0
    z_score = (release.value - true_count) / noise_std
    return AttackOutcome(
        system="curator",
        attack="noise-biasing",
        succeeded=True,
        detected=abs(z_score) > 4.0,  # only a wildly implausible shift stands out
        culprit=None,
        details=(
            f"released {release.value:.1f} vs true {true_count}; bias {bias}; "
            f"z-score under honest noise = {z_score:+.2f} (|z|<4 ⇒ plausible noise)"
        ),
    )


def noise_biasing_on_pibin(
    n_clients: int = 40, bias: int = 15, rng: RNG | None = None
) -> AttackOutcome:
    """The same shift inside ΠBin is caught deterministically (Line 13)."""
    rng = rng or SeededRNG("noise-bias-pibin")
    params = setup(1.0, 2**-10, num_provers=1, group=_TEST_GROUP, nb_override=32)
    cheater = OutputTamperingProver("prover-0", params, rng.fork("p0"), bias=bias)
    engine = ProtocolEngine(params, provers=[cheater], rng=rng)
    clients = [
        Client(f"client-{i}", [1 if i % 3 == 0 else 0], rng.fork(f"client-{i}"))
        for i in range(n_clients)
    ]
    engine.submit_clients(clients)
    result = engine.run_release()
    audit = result.release.audit
    detected = audit.provers.get("prover-0") is ProverStatus.FAILED_FINAL_CHECK
    return AttackOutcome(
        system="pibin",
        attack="noise-biasing",
        succeeded=result.release.accepted,
        detected=detected,
        culprit="prover-0" if detected else None,
        details=f"release accepted={result.release.accepted}; audit={audit.provers}",
    )
