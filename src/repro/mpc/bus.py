"""A traffic ledger standing in for the network.

The paper measures local computation only ("we do not include time spent
to communicate over the network"), so an in-process run needs no
delivery at all: every party is a method call on the same interpreter,
and the public messages the board keeps are retained by the engine
itself.  What the experiment drivers do report alongside timings is
*traffic* — bytes and message counts per sender — so the bus is a
ledger: it registers parties, checks that every sender and recipient is
one, and charges each message to its sender.  It stores no payload;
nothing sent through it outlives the call.

Accounting is *exact* for every message with a wire codec in
:mod:`repro.crypto.serialization` (the full protocol message set of ΠBin):
the payload is charged its encoded frame length, so communication-cost
numbers in benchmarks equal actual wire bytes.  That length is rarely
built to be counted: :func:`repro.crypto.serialization.wire_size` takes
it from an encoding already at hand in the encode-once fan-out cache
(never inserting — a one-chunk session retains its messages, and
accounting must not pin every frame alongside them), and otherwise
computes it from the message's shape for coin chunks and Morra rounds,
the messages a coin stream sends by the thousand.  Only the remaining
types, and shapes the size functions decline, are encoded to be counted.
The byte counts are identical on every path.  Payloads without a codec
fall back to a best-effort ``to_bytes``/``__len__`` estimate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EncodingError, ParameterError

__all__ = ["SimulatedNetwork"]


_wire_size = None  # resolved lazily; serialization imports core which imports us


def _payload_size(payload: Any) -> int:
    """Byte size of a payload for traffic accounting.

    Exact (real encoded frame length) when the payload type is in the
    serialization registry; best-effort estimation otherwise.
    """
    global _wire_size
    if _wire_size is None:
        from repro.crypto.serialization import wire_size

        _wire_size = wire_size
    try:
        exact = _wire_size(payload)
    except EncodingError:
        exact = None
    if exact is not None:
        return exact
    return _estimate_size(payload)


def _estimate_size(payload: Any) -> int:
    """Best-effort byte size for payloads without a wire codec."""
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if hasattr(payload, "to_bytes") and not isinstance(payload, int):
        try:
            return len(payload.to_bytes())
        except TypeError:
            pass
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, (tuple, list)):
        return sum(_estimate_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(_estimate_size(k) + _estimate_size(v) for k, v in payload.items())
    return 0


@dataclass
class SimulatedNetwork:
    """Per-sender traffic ledger over a registry of named parties.

    ``send`` and ``broadcast`` check their parties and charge the payload
    to the sender; neither delivers nor keeps it.
    """

    parties: set[str] = field(default_factory=set)
    bytes_sent: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    messages_sent: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def register(self, name: str) -> None:
        if name in self.parties:
            raise ParameterError(f"party {name!r} already registered")
        if name == "*":
            raise ParameterError("'*' is reserved for broadcast")
        self.parties.add(name)

    def _check_party(self, name: str) -> None:
        if name not in self.parties:
            raise ParameterError(f"unknown party {name!r}")

    def send(self, sender: str, recipient: str, payload: Any) -> None:
        """Account one point-to-point message."""
        self._check_party(sender)
        self._check_party(recipient)
        self._account(sender, payload)

    def broadcast(self, sender: str, payload: Any) -> None:
        """Account one message to every other party (and the public board)."""
        self._check_party(sender)
        self._account(sender, payload)

    def _account(self, sender: str, payload: Any) -> None:
        self.bytes_sent[sender] += _payload_size(payload)
        self.messages_sent[sender] += 1

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())
