"""Π_morra — commit-reveal sampling of public randomness (Algorithm 1).

K parties jointly sample a uniform value that none of them controls:

1. each party k samples m_k ← Z_q uniformly (an adversary may bias its
   own m_k — it doesn't matter),
2. **Commit**: parties broadcast Com(m_k, r_k) in lexicographic order,
3. **Reveal**: once *all* commitments are in, parties open in *reverse*
   order (the reverse order guarantees each party's value was fixed
   before it saw any other opening); any failed opening or missing
   message aborts the protocol,
4. X = Σ m_k mod q is uniform as long as one party was honest; a bit is
   extracted by thresholding at ⌈q/2⌉ (bias O(1/q), negligible).

This securely computes the oracle ``O_morra`` against a dishonest
majority of *active* adversaries: hiding prevents copying another party's
value, binding prevents changing one's value after the fact, and early
exit is detected (and, per the paper, not a security breach — the output
is simply discarded).

``run_morra_batch`` runs many independent instances in one commit round
and one reveal round (parallel composition, footnote 7) — this is how
ΠBin obtains its nb public coins at Table 1's "Morra" cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EarlyExit, ParameterError, ProtocolAbort, VerificationError
from repro.mpc.bus import SimulatedNetwork
from repro.mpc.commit import HashCommitment, HashCommitmentScheme
from repro.mpc.party import Party

__all__ = [
    "MorraParticipant",
    "MorraOutcome",
    "run_morra_batch",
]


class MorraParticipant(Party):
    """An honest Morra participant.

    Subclasses in :mod:`repro.mpc.adversary` override the three hook
    methods to deviate arbitrarily (bias, equivocate, abort, stall).
    """

    def sample_values(self, q: int, count: int) -> list[int]:
        """Step 1: choose contributions (honest: uniform on Z_q)."""
        return [self.rng.field_element(q) for _ in range(count)]

    def commitments(
        self, scheme: HashCommitmentScheme, values: list[int]
    ) -> tuple[list[HashCommitment], list[bytes]]:
        """Step 2: commit to each contribution."""
        commitments: list[HashCommitment] = []
        randomness: list[bytes] = []
        for value in values:
            c, r = scheme.commit(value, self.rng)
            commitments.append(c)
            randomness.append(r)
        return commitments, randomness

    def reveal(
        self, values: list[int], randomness: list[bytes], observed: dict[str, list[int]]
    ) -> tuple[list[int], list[bytes]] | None:
        """Step 3: open the commitments.

        ``observed`` maps party names to values already revealed by later
        parties in the reverse order — an adversary could try to use this
        (binding stops it).  Returning None models going silent.
        """
        return values, randomness


@dataclass(frozen=True)
class MorraOutcome:
    """The public result of a batch of Morra instances."""

    values: tuple[int, ...]
    q: int

    def bits(self) -> list[int]:
        """Threshold each value at ⌈q/2⌉ (Algorithm 1, step 4)."""
        half = (self.q + 1) // 2  # ⌈q/2⌉ for odd q
        return [0 if value <= half else 1 for value in self.values]


def run_morra_batch(
    participants: list[MorraParticipant],
    q: int,
    count: int,
    *,
    network: SimulatedNetwork | None = None,
    scheme: HashCommitmentScheme | None = None,
) -> MorraOutcome:
    """Run ``count`` parallel Morra instances among ``participants``.

    Raises :class:`ProtocolAbort` (or :class:`EarlyExit`) when any party
    equivocates, opens inconsistently, or goes silent — mirroring the
    "protocol is aborted" clause of Algorithm 1 step 3.
    """
    # Imported here: repro.core.prover subclasses MorraParticipant, so a
    # top-level import of repro.core.messages would be circular.
    from repro.core.messages import MorraCommitMessage, MorraRevealMessage

    if len(participants) < 2:
        raise ParameterError("Morra needs at least two participants")
    if count < 1:
        raise ParameterError("count must be positive")
    if q < 3:
        raise ParameterError("q must be an odd prime-sized modulus")
    scheme = scheme or HashCommitmentScheme()
    network = network or SimulatedNetwork()
    names = [p.name for p in participants]
    if len(set(names)) != len(names):
        raise ParameterError("participant names must be unique")
    for name in names:
        if name not in network.parties:
            network.register(name)

    # Step 1-2: sample and broadcast commitments in lexicographic order.
    state: dict[str, tuple[list[int], list[bytes]]] = {}
    commitments: dict[str, list[HashCommitment]] = {}
    for participant in sorted(participants, key=lambda p: p.name):
        values = participant.sample_values(q, count)
        if values is None or len(values) != count:
            raise EarlyExit("participant failed to contribute", party=participant.name)
        comms, rand = participant.commitments(scheme, values)
        state[participant.name] = (values, rand)
        commitments[participant.name] = comms
        network.broadcast(
            participant.name,
            MorraCommitMessage(
                sender=participant.name, digests=tuple(c.digest for c in comms)
            ),
        )

    # Step 3: reveal in reverse lexicographic order; verify every opening.
    revealed: dict[str, list[int]] = {}
    for participant in sorted(participants, key=lambda p: p.name, reverse=True):
        values, rand = state[participant.name]
        response = participant.reveal(values, rand, dict(revealed))
        if response is None:
            raise EarlyExit("participant went silent during reveal", party=participant.name)
        opened_values, opened_rand = response
        if len(opened_values) != count or len(opened_rand) != count:
            raise ProtocolAbort("malformed reveal", party=participant.name)
        for i in range(count):
            try:
                scheme.verify(commitments[participant.name][i], opened_values[i], opened_rand[i])
            except VerificationError as exc:
                raise ProtocolAbort(
                    f"opening check failed on instance {i}: {exc}",
                    party=participant.name,
                ) from exc
            if not 0 <= opened_values[i] < q:
                raise ProtocolAbort(
                    f"revealed value out of range on instance {i}",
                    party=participant.name,
                )
        revealed[participant.name] = opened_values
        network.broadcast(
            participant.name,
            MorraRevealMessage(sender=participant.name, values=tuple(opened_values)),
        )

    # Step 4: combine.
    totals = [
        sum(revealed[name][i] for name in names) % q for i in range(count)
    ]
    return MorraOutcome(tuple(totals), q)
