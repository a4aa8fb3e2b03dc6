"""Clients for the non-paper input languages.

:class:`RangeClient` holds a k-bit bounded value as its bit
decomposition: shares and commitments follow the standard ΠBin client
flow per bit coordinate, and the validity proof is the bit-vector proof
(:mod:`repro.crypto.sigma.bitvec`) over the derived commitments — a
commit-and-prove range proof.  Any observer recovers the value
commitment homomorphically as Π_j c_j^{2^j}.
"""

from __future__ import annotations

from repro.core.client import Client
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.crypto.sigma.bitvec import prove_bit_vector

__all__ = ["RangeClient"]


class RangeClient(Client):
    """A client whose vector is the bit decomposition of a bounded value."""

    def _prove_derived(
        self,
        pedersen: PedersenParams,
        commitments: list[Commitment],
        openings: list[Opening],
        transcript: Transcript,
    ):
        return prove_bit_vector(pedersen, commitments, openings, transcript, self.rng)
