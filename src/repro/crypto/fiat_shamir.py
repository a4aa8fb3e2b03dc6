"""Fiat–Shamir transcripts.

All non-interactive proofs in this library (the Σ-OR proofs of Appendix C,
made non-interactive "using the Fiat-Shamir transform ... secure in the
random oracle model") derive their challenges from a :class:`Transcript` —
a running, domain-separated SHA-512 hash of every public message, in the
style of Merlin transcripts:

* every append is labelled and length-prefixed (no ambiguity / no
  extension-style collisions between differently-split messages),
* protocols are separated by an explicit domain label, so a proof produced
  for one statement or context can never verify in another,
* challenge extraction is itself labelled and chains into subsequent state,
  so multiple challenges from one transcript are independent.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.crypto.group import GroupElement
from repro.errors import ParameterError
from repro.utils.encoding import int_to_bytes

__all__ = ["Transcript"]


def _frame(label: bytes) -> bytes:
    return len(label).to_bytes(4, "big") + label


# The protocol absorbs under a few dozen fixed labels; the bound only caps
# what arbitrary labels can leave behind.
@lru_cache(maxsize=1024)
def _header(label: str) -> bytes:
    """``len(label) ‖ label``, the first half of every absorb."""
    return _frame(label.encode())


@lru_cache(maxsize=1024)
def _challenge_prefixes(label: str) -> tuple[bytes, bytes]:
    """``(b"challenge:" + label, header of b"extracted:" + label)``."""
    encoded = label.encode()
    return b"challenge:" + encoded, _frame(b"extracted:" + encoded)


class Transcript:
    """A domain-separated running hash of protocol messages.

    Each absorb hashes ``len(label) ‖ label ‖ len(payload) ‖ payload``
    (4-byte big-endian lengths) in one ``update``.
    """

    def __init__(self, domain: bytes | str) -> None:
        if isinstance(domain, str):
            domain = domain.encode()
        if not domain:
            raise ParameterError("transcript domain must be non-empty")
        self._state = hashlib.sha512(b"repro.transcript.v1")
        self._absorb(_frame(b"domain"), domain)

    def _absorb(self, header: bytes, payload: bytes) -> None:
        self._state.update(b"".join((header, len(payload).to_bytes(4, "big"), payload)))

    # Appending ----------------------------------------------------------

    def append_bytes(self, label: str, payload: bytes) -> None:
        self._absorb(_header(label), payload)

    def append_int(self, label: str, value: int, width: int | None = None) -> None:
        self._absorb(_header(label), int_to_bytes(value, width))

    def append_element(self, label: str, element: GroupElement) -> None:
        self._absorb(_header(label), element.to_bytes())

    def append_elements(self, label: str, elements) -> None:
        for i, element in enumerate(elements):
            self._absorb(_frame(f"{label}[{i}]".encode()), element.to_bytes())

    def append_str(self, label: str, text: str) -> None:
        self._absorb(_header(label), text.encode())

    # Challenge extraction -------------------------------------------------

    def challenge_bytes(self, label: str, n: int) -> bytes:
        """Extract ``n`` challenge bytes and fold them back into the state.

        Block ``i`` is ``SHA-512(state ‖ "challenge:" label ‖ i)``, each
        hashed on its own copy of the state: one copy per 64 bytes.
        """
        prefix, extracted = _challenge_prefixes(label)
        state = self._state
        blocks = []
        for counter in range((n + 63) // 64):
            block = state.copy()
            block.update(prefix + counter.to_bytes(4, "big"))
            blocks.append(block.digest())
        digest = b"".join(blocks)[:n]
        # Chain the extraction so later challenges depend on this one.
        self._absorb(extracted, digest)
        return digest

    def challenge_scalar(self, label: str, modulus: int) -> int:
        """A challenge scalar statistically close to uniform on Z_modulus.

        Samples 128 bits beyond the modulus size before reducing, bounding
        the bias at 2^-128.
        """
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        nbytes = (modulus.bit_length() + 7) // 8 + 16
        return int.from_bytes(self.challenge_bytes(label, nbytes), "big") % modulus

    def fork(self, label: str) -> "Transcript":
        """An independent sub-transcript (e.g. per parallel repetition)."""
        child = Transcript.__new__(Transcript)
        child._state = self._state.copy()
        child._absorb(_frame(b"fork"), label.encode())
        return child

    def clone(self) -> "Transcript":
        """An exact copy of the current state.

        Streamed verification snapshots the transcript before folding a
        chunk of proofs so a failed chunk can be replayed proof-by-proof
        (to name the cheater) from the identical starting state.
        """
        twin = Transcript.__new__(Transcript)
        twin._state = self._state.copy()
        return twin
