"""The public bulletin board — a byte-level transcript of ΠBin.

Section 4.3: "As the verifier is public, anyone (even non-participants to
ΠBin) can see the messages it receives."  This module makes that literal:
every public message of a protocol run is serialized onto a
:class:`BulletinBoard`, and :func:`replay_audit` re-derives the verifier's
verdicts *from the bytes alone* — no live objects, no trust in the
original verifier.  This is the mechanism behind Table 2's "Auditable"
column and the third-party-replay example.

The board stores (topic, party, payload-bytes) entries in order.  Topics:

* ``client-broadcast/<id>``   — share commitments + validity proof,
* ``client-complaints/<k>``   — the clients whose private opening failed
  that prover's check (present only when the prover complained),
* ``coin-commitments/<k>``    — a prover's coin commitments + Σ-OR proofs,
* ``morra-bits/<k>``          — the public bits from that prover's Morra,
* ``prover-output/<k>``       — (y_k, z_k).

Morra transcripts are recorded post-hoc as their resulting public bits:
re-checking Morra's own commit-reveal interaction requires its (hash)
commitments, which the simulated network does retain; for the audit the
bits are what enter the Line 12 computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.messages import (
    ClientBroadcast,
    CoinCommitmentMessage,
    ProverOutputMessage,
)
from repro.core.params import PublicParams
from repro.core.prover import broadcast_context_digest
from repro.core.verifier import PublicVerifier
from repro.crypto.serialization import (
    decode_bit_proof,
    decode_commitment,
    decode_one_hot_proof,
    encode_bit_proof,
    encode_commitments,
    encode_one_hot_proof,
)
from repro.crypto.sigma.or_bit import BitProof
from repro.errors import EncodingError, ReproError
from repro.utils.encoding import (
    decode_length_prefixed,
    encode_length_prefixed,
    int_to_bytes,
)
from repro.utils.rng import SeededRNG

__all__ = ["BulletinBoard", "publish_run", "replay_audit"]


@dataclass(frozen=True)
class BoardEntry:
    topic: str
    party: str
    payload: bytes


@dataclass
class BulletinBoard:
    """An append-only public log of serialized protocol messages."""

    entries: list[BoardEntry] = field(default_factory=list)

    def publish(self, topic: str, party: str, payload: bytes) -> None:
        self.entries.append(BoardEntry(topic, party, payload))

    def topic(self, prefix: str) -> list[BoardEntry]:
        return [e for e in self.entries if e.topic.startswith(prefix)]

    def total_bytes(self) -> int:
        return sum(len(e.payload) for e in self.entries)


# Serialization of the composite messages --------------------------------------


def _encode_client_broadcast(broadcast: ClientBroadcast) -> bytes:
    rows = []
    for row in broadcast.share_commitments:
        rows.append(encode_length_prefixed(*encode_commitments(row)))
    if isinstance(broadcast.validity_proof, BitProof):
        proof = encode_length_prefixed(b"bit", encode_bit_proof(broadcast.validity_proof))
    else:
        proof = encode_length_prefixed(
            b"onehot", encode_one_hot_proof(broadcast.validity_proof)
        )
    return encode_length_prefixed(
        broadcast.client_id.encode(), proof, *rows
    )


def _decode_client_broadcast(params: PublicParams, data: bytes) -> ClientBroadcast:
    parts = decode_length_prefixed(data)
    if len(parts) < 3:
        raise EncodingError("client broadcast too short")
    client_id = parts[0].decode()
    kind, proof_bytes = decode_length_prefixed(parts[1])
    if kind == b"bit":
        proof = decode_bit_proof(params.group, proof_bytes)
    elif kind == b"onehot":
        proof = decode_one_hot_proof(params.group, proof_bytes)
    else:
        raise EncodingError(f"unknown validity proof kind {kind!r}")
    rows = []
    for raw in parts[2:]:
        rows.append(
            tuple(decode_commitment(params.group, c) for c in decode_length_prefixed(raw))
        )
    return ClientBroadcast(client_id, tuple(rows), proof)


def _encode_coin_message(message: CoinCommitmentMessage) -> bytes:
    rows = []
    for c_row, p_row in zip(message.commitments, message.proofs):
        rows.append(
            encode_length_prefixed(
                *encode_commitments(c_row),
                *[encode_bit_proof(p) for p in p_row],
            )
        )
    return encode_length_prefixed(message.prover_id.encode(), *rows)


def _decode_coin_message(params: PublicParams, data: bytes) -> CoinCommitmentMessage:
    parts = decode_length_prefixed(data)
    if not parts:
        raise EncodingError("coin message is empty")
    prover_id = parts[0].decode()
    commitments = []
    proofs = []
    m = params.dimension
    for raw in parts[1:]:
        fields = decode_length_prefixed(raw)
        if len(fields) != 2 * m:
            raise EncodingError("coin row has wrong arity")
        commitments.append(
            tuple(decode_commitment(params.group, c) for c in fields[:m])
        )
        proofs.append(tuple(decode_bit_proof(params.group, p) for p in fields[m:]))
    return CoinCommitmentMessage(prover_id, tuple(commitments), tuple(proofs))


def _encode_bits(bits: list[list[int]]) -> bytes:
    return encode_length_prefixed(*[bytes(row) for row in bits])


def _decode_bits(params: PublicParams, data: bytes) -> list[list[int]]:
    bits = [list(row) for row in decode_length_prefixed(data)]
    if len(bits) != params.nb or any(
        len(row) != params.dimension or set(row) - {0, 1} for row in bits
    ):
        raise EncodingError("not an nb x M matrix of bits")
    return bits


def _encode_output(output: ProverOutputMessage, params: PublicParams) -> bytes:
    width = params.group.scalar_bytes
    return encode_length_prefixed(
        output.prover_id.encode(),
        *[int_to_bytes(y, width) for y in output.y],
        *[int_to_bytes(z, width) for z in output.z],
    )


def _decode_output(params: PublicParams, data: bytes) -> ProverOutputMessage:
    """The inverse of :func:`_encode_output`, and only of it: every y/z
    part is exactly ``scalar_bytes`` long and below q, so one output has
    one encoding on the board."""
    parts = decode_length_prefixed(data)
    m = params.dimension
    if len(parts) != 1 + 2 * m:
        raise EncodingError("prover output has wrong arity")
    prover_id = parts[0].decode()
    width, q = params.group.scalar_bytes, params.group.order
    values = [int.from_bytes(raw, "big") for raw in parts[1:]]
    if any(len(raw) != width for raw in parts[1:]) or any(v >= q for v in values):
        raise EncodingError(
            f"prover output part is not a canonical {width}-byte scalar below q"
        )
    return ProverOutputMessage(prover_id, tuple(values[:m]), tuple(values[m:]))


def _encode_complaints(client_ids: list[str]) -> bytes:
    return encode_length_prefixed(*[cid.encode() for cid in client_ids])


def _complaints_decoder(published: set[str]):
    """Decoder for one prover's complaint list against the published clients."""

    def decode(params: PublicParams, data: bytes) -> list[str]:
        client_ids = [raw.decode() for raw in decode_length_prefixed(data)]
        for cid in client_ids:
            if cid not in published:
                raise EncodingError(f"names unpublished client {cid!r}")
        return client_ids

    return decode


# Publishing and replaying -------------------------------------------------------


def publish_run(
    params: PublicParams,
    broadcasts: list[ClientBroadcast],
    coin_messages: list[CoinCommitmentMessage],
    public_bits: dict[str, list[list[int]]],
    outputs: list[ProverOutputMessage],
    complaints: dict[str, list[str]] | None = None,
) -> BulletinBoard:
    """Serialize one run's public messages onto a fresh board.

    ``complaints`` maps prover name → ids of the clients whose private
    opening failed that prover's check.  A prover's complaint is the
    public message that excludes a client as BAD_OPENING; without it an
    auditor would include the client and blame the provers for the
    mismatch.  A prover that did not complain publishes nothing.
    """
    board = BulletinBoard()
    for broadcast in broadcasts:
        board.publish(
            f"client-broadcast/{broadcast.client_id}",
            broadcast.client_id,
            _encode_client_broadcast(broadcast),
        )
    for prover_id, client_ids in (complaints or {}).items():
        if client_ids:
            board.publish(
                f"client-complaints/{prover_id}", prover_id, _encode_complaints(client_ids)
            )
    for message in coin_messages:
        board.publish(
            f"coin-commitments/{message.prover_id}",
            message.prover_id,
            _encode_coin_message(message),
        )
    for prover_id, bits in public_bits.items():
        board.publish(f"morra-bits/{prover_id}", prover_id, _encode_bits(bits))
    for output in outputs:
        board.publish(
            f"prover-output/{output.prover_id}", output.prover_id, _encode_output(output, params)
        )
    return board


def _published(
    params: PublicParams,
    board: BulletinBoard,
    prefix: str,
    decode,
    id_field: str | None = None,
    provers=None,
) -> dict:
    """``decode(params, payload)`` of the entries under ``prefix``, keyed
    by publishing party.

    A board is bytes from outside the program: a payload that does not
    decode, a party publishing twice under one prefix, a party outside
    ``provers`` (when given), or a message naming a different party than
    its entry raises :class:`EncodingError` naming the topic.
    """
    found: dict = {}
    for entry in board.topic(prefix):
        if entry.party in found:
            raise EncodingError(f"{entry.topic}: published more than once")
        if provers is not None and entry.party not in provers:
            raise EncodingError(f"{entry.topic}: {entry.party!r} is not a prover")
        try:
            decoded = decode(params, entry.payload)
        except (ReproError, ValueError) as exc:
            raise EncodingError(f"{entry.topic}: {exc}") from exc
        if id_field is not None and getattr(decoded, id_field) != entry.party:
            raise EncodingError(f"{entry.topic}: payload names another party")
        found[entry.party] = decoded
    return found


def replay_audit(params: PublicParams, board: BulletinBoard):
    """Re-run the complete public verification from serialized bytes.

    Returns a fresh :class:`AuditRecord` derived only from the board.
    Any third party holding (pp, board) computes the same verdicts as the
    original verifier — the auditability property, end to end.  The board
    is replayed through the verifier's chunk primitives as the one-chunk
    run it records; a structurally broken board (see :func:`_published`,
    or a prover without its ``morra-bits`` entry) raises
    :class:`EncodingError`, everything else lands in the verdicts.
    """
    # batch=False: the batched path's random-linear-combination weights
    # are only sound when unpredictable to the proof author, and a replay
    # auditor's RNG is public by construction (anyone must be able to
    # reproduce the verdicts).  Sequential verification is exact — no
    # soundness slack — and byte-for-byte deterministic.
    auditor = PublicVerifier(
        params, SeededRNG("replay-auditor"), name="auditor", batch=False
    )

    published = _published(
        params, board, "client-broadcast/", _decode_client_broadcast, "client_id"
    )
    broadcasts = list(published.values())
    coin_messages = _published(
        params, board, "coin-commitments/", _decode_coin_message, "prover_id"
    )
    if len(coin_messages) > params.num_provers:
        raise EncodingError(
            f"coin-commitments/: {len(coin_messages)} entries for "
            f"{params.num_provers} provers"
        )
    complaints = _published(
        params,
        board,
        "client-complaints/",
        _complaints_decoder(set(published)),
        provers=coin_messages,
    )
    auditor.fold_client_commitments(
        broadcasts, auditor.validate_clients(broadcasts, complaints)
    )
    context = broadcast_context_digest(broadcasts)

    bits_by_prover = _published(params, board, "morra-bits/", _decode_bits)
    outputs = _published(
        params, board, "prover-output/", _decode_output, "prover_id"
    )

    for k, (prover_id, message) in enumerate(coin_messages.items()):
        auditor.begin_coin_stream(prover_id, context)
        if not auditor.verify_coin_chunk(message):
            continue
        bits = bits_by_prover.get(prover_id)
        if bits is None:
            raise EncodingError(f"morra-bits/{prover_id}: missing from the board")
        # A short chunk keeps its rows pending, so finish_coin_stream
        # records the incomplete stream against the prover.
        if len(message.commitments) == len(bits):
            auditor.apply_public_bits_chunk(prover_id, bits)
        if auditor.finish_coin_stream(prover_id) and prover_id in outputs:
            auditor.check_prover_output_folded(outputs[prover_id], k)
    return auditor.audit
