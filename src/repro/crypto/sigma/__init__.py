"""Σ-protocols over Pedersen commitments.

The paper verifies two things in zero knowledge with Σ-protocols:

* :mod:`repro.crypto.sigma.or_bit` — the Cramer–Damgård–Schoenmakers OR
  proof (Appendix C, Figures 5/6) that a commitment opens to 0 or 1.  This
  instantiates the oracle ``O_OR`` used on Lines 3 and 5–6 of ΠBin and is
  the protocol's main computational bottleneck (Section 6).
* :mod:`repro.crypto.sigma.onehot` — the M-dimensional extension: each
  coordinate is a bit and the coordinates sum to one (Appendix C, final
  paragraph), used for client validation in MPC-DP histograms (Figure 4).

Batch verification (:mod:`batch`) rounds out the toolbox.  All proofs are made
non-interactive with the Fiat–Shamir transform over
:class:`repro.crypto.fiat_shamir.Transcript`; the
interactive 3-move forms are in :mod:`repro.crypto.sigma.interactive`
(not imported here: no protocol path runs them) because the test-suite
exercises special soundness (extractors) and honest-verifier
zero-knowledge (simulators) directly.
"""

from repro.crypto.sigma.or_bit import (
    BitProof,
    prove_bit,
    verify_bit,
    prove_bits,
    verify_bits,
    simulate_bit_transcript,
)
from repro.crypto.sigma.onehot import OneHotProof, prove_one_hot, verify_one_hot
from repro.crypto.sigma.bitvec import (
    BitVectorProof,
    prove_bit_vector,
    verify_bit_vector,
)
from repro.crypto.sigma.batch import SigmaBatch, batch_verify_bits, batch_verify_one_hot

__all__ = [
    "BitProof",
    "prove_bit",
    "verify_bit",
    "prove_bits",
    "verify_bits",
    "simulate_bit_transcript",
    "OneHotProof",
    "prove_one_hot",
    "verify_one_hot",
    "BitVectorProof",
    "prove_bit_vector",
    "verify_bit_vector",
    "SigmaBatch",
    "batch_verify_bits",
    "batch_verify_one_hot",
]
