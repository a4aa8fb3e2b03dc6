"""Cryptographic substrate: groups, commitments, Fiat–Shamir, Σ-protocols.

Built entirely from scratch on Python integers (the environment has no
crypto dependency).  Two interchangeable prime-order group backends are
provided, matching Section 6 of the paper:

* :class:`repro.crypto.schnorr_group.SchnorrGroup` — the subgroup of
  quadratic residues of Z*p for a safe prime p ("Gq ⊂ Z*p" in the paper,
  which used OpenSSL BigNum).
* :class:`repro.crypto.ristretto.RistrettoGroup` — ristretto255, the
  prime-order group over Curve25519 (the paper used curve25519-dalek).

Two optional native pieces run through ``ctypes`` where the host has the
library (self-tested, decided once per process, not imported here):
:mod:`repro.crypto.sodium`, the same ristretto255 computed by libsodium,
to which the *name* ``"ristretto255"`` resolves in
``core.params._resolve_group``; and :mod:`repro.crypto.gmp`, libgmp's
``mpz_jacobi`` as a Schnorr element's membership test.  The classes
above are the pure reference implementations.
"""

from repro.crypto.group import Group, GroupElement
from repro.crypto.schnorr_group import SchnorrGroup
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.p256 import P256Group
from repro.crypto.pedersen import PedersenParams, Commitment, Opening
from repro.crypto.fiat_shamir import Transcript

__all__ = [
    "Group",
    "GroupElement",
    "SchnorrGroup",
    "RistrettoGroup",
    "P256Group",
    "PedersenParams",
    "Commitment",
    "Opening",
    "Transcript",
]
