"""Multi-party protocol substrate.

Provides the traffic ledger in-process runs charge their messages to,
the Morra commit-reveal coin-flipping protocol (Algorithm 1) that
realizes the public-randomness oracle ``O_morra``, and the adversary
framework for active (arbitrarily deviating) participants
(:mod:`repro.mpc.adversary`, which no protocol path runs and this
package does not import).
"""

from repro.mpc.bus import SimulatedNetwork
from repro.mpc.party import Party
from repro.mpc.commit import HashCommitmentScheme, HashCommitment
from repro.mpc.morra import MorraParticipant, run_morra_batch

__all__ = [
    "SimulatedNetwork",
    "Party",
    "HashCommitmentScheme",
    "HashCommitment",
    "MorraParticipant",
    "run_morra_batch",
]
