"""ΠBin — verifiable differentially-private counting (the paper's core).

The package implements Figure 2 end to end, in both models:

* **Trusted curator** (K = 1): one prover sees client bits in plaintext and
  must prove the released count is the true count plus honestly-sampled
  Binomial noise.
* **Client–server MPC** (K >= 2): clients secret-share their inputs; each
  prover runs the identical per-prover protocol on its shares, adding its
  own independent copy of Binomial noise (necessary against K-1
  collusions); a public verifier validates clients, checks every prover's
  Σ-OR proofs, co-samples the Morra public coins and performs the final
  homomorphic check.

Entry point: :class:`repro.api.Session` executes declarative queries
(count, histogram, bounded sum, composed) over the substrate defined
here; :class:`repro.api.ProtocolEngine` is the same run with custom
(cheating, remote, sharded) provers or verifiers slotted in.

The zero-knowledge simulators (:mod:`repro.core.simulator`) run in no
protocol path and are not imported here.
"""

from repro.core.params import PublicParams, setup
from repro.core.plan import AggregationPlan
from repro.core.messages import (
    ClientBroadcast,
    ClientShareMessage,
    CoinCommitmentMessage,
    ProverOutputMessage,
    AuditRecord,
    Release,
)
from repro.core.client import Client, encode_choice
from repro.core.prover import (
    Prover,
    BiasedCoinProver,
    SkipAdjustmentProver,
    OutputTamperingProver,
    InputDroppingProver,
    InputInjectingProver,
)
from repro.core.verifier import PublicVerifier
from repro.core.bulletin import BulletinBoard, replay_audit

__all__ = [
    "PublicParams",
    "setup",
    "AggregationPlan",
    "ClientBroadcast",
    "ClientShareMessage",
    "CoinCommitmentMessage",
    "ProverOutputMessage",
    "AuditRecord",
    "Release",
    "Client",
    "encode_choice",
    "Prover",
    "BiasedCoinProver",
    "SkipAdjustmentProver",
    "OutputTamperingProver",
    "InputDroppingProver",
    "InputInjectingProver",
    "PublicVerifier",
    "BulletinBoard",
    "replay_audit",
]
