"""An in-memory message bus standing in for the network.

The paper measures local computation only ("we do not include time spent
to communicate over the network"), so the substrate's job is fidelity of
*semantics*, not of latency: ordered point-to-point channels, broadcast,
and per-protocol traffic accounting (bytes and message counts), which the
experiment drivers report alongside timings.

Messages are delivered synchronously in send order per (sender, recipient)
pair — the model every protocol in the paper assumes.  Traffic accounting
is *exact* for every message with a wire codec in
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

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EncodingError, ParameterError, ProtocolAbort

__all__ = ["Envelope", "SimulatedNetwork"]


@dataclass(frozen=True)
class Envelope:
    """A delivered message: sender, recipient ('*' for broadcast), payload."""

    sender: str
    recipient: str
    payload: Any


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
    """Synchronous in-memory channels between named parties.

    ``buffering=False`` turns the bus into a pure accounting transport:
    traffic is still counted per sender, but payloads are not retained in
    delivery queues.  The streaming session engine uses this so undrained
    broadcast queues (every protocol message × every registered client)
    cannot dominate peak memory; ``receive`` on a non-buffering bus is a
    protocol abort, exactly as an unexpectedly silent peer would be.
    """

    parties: set[str] = field(default_factory=set)
    _queues: dict[tuple[str, str], deque] = field(default_factory=lambda: defaultdict(deque))
    bytes_sent: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    messages_sent: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    log: list[Envelope] = field(default_factory=list)
    record_log: bool = False
    buffering: bool = True

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
        """Point-to-point ordered delivery."""
        self._check_party(sender)
        self._check_party(recipient)
        if self.buffering:
            self._queues[(sender, recipient)].append(payload)
        self._account(sender, recipient, payload)

    def broadcast(self, sender: str, payload: Any) -> None:
        """Deliver to every other party (and the public log)."""
        self._check_party(sender)
        if self.buffering:
            for recipient in sorted(self.parties):
                if recipient != sender:
                    self._queues[(sender, recipient)].append(payload)
        self._account(sender, "*", payload)

    def _account(self, sender: str, recipient: str, payload: Any) -> None:
        self.bytes_sent[sender] += _payload_size(payload)
        self.messages_sent[sender] += 1
        if self.record_log:
            self.log.append(Envelope(sender, recipient, payload))

    def receive(self, recipient: str, sender: str) -> Any:
        """Pop the next message from ``sender`` to ``recipient``.

        Raises :class:`ProtocolAbort` when no message is waiting — in a
        synchronous protocol a missing expected message *is* an abort
        (the peer went silent).
        """
        self._check_party(recipient)
        queue = self._queues[(sender, recipient)]
        if not queue:
            raise ProtocolAbort(
                f"{recipient!r} expected a message from {sender!r} but none arrived",
                party=sender,
            )
        return queue.popleft()

    def try_receive(self, recipient: str, sender: str) -> Any | None:
        """Non-raising :meth:`receive`; None when the queue is empty."""
        self._check_party(recipient)
        queue = self._queues[(sender, recipient)]
        return queue.popleft() if queue else None

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())
