"""Canonical byte serialization for proof artifacts and protocol messages.

A *public* verifier only makes sense if the protocol's messages can live
on a bulletin board, as canonical bytes any third party can parse and
re-verify.  Every proof encoding and registered message is declared once
here as a :class:`~repro.crypto.schema.Record`; encoding, decoding,
``wire_size`` and the coin-chunk transcript walk derive from it.

Format v1 decodes loosely in two places — the fences v2 flips (ROADMAP
items 1 and 11): scalars (a bit proof's e0/e1/v0/v1, a one-hot proof's
randomness) with no ``< q`` check, and uints (counts, openings, prover
outputs, Morra values, a release's raw sums) with leading zero bytes.
Decoding validates group membership, so a decoded proof is structurally
sound; verifying it is the caller's job.
"""

from __future__ import annotations

import weakref

from repro.crypto.group import Group
from repro.crypto.pedersen import Commitment, Opening
from repro.crypto.schema import (
    COMMITMENT, ELEMENT, SCALAR, Record,
    count, f64, flag, many, nested, one, raw, text, uint, union,
)
from repro.crypto.sigma.bitvec import BitVectorProof
from repro.crypto.sigma.onehot import OneHotProof
from repro.crypto.sigma.or_bit import BitProof
from repro.errors import EncodingError
from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed

__all__ = [
    "encode_commitment", "encode_commitments", "decode_commitment", "encode_bit_proof",
    "decode_bit_proof", "encode_one_hot_proof", "decode_one_hot_proof", "encode_bit_vector_proof",
    "decode_bit_vector_proof", "encode_validity_proof", "decode_validity_proof", "encode_message",
    "encode_message_cached", "decode_message", "advance_coin_transcript_frame", "wire_size",
    "WIRE_MAGIC",
]

_BIT_PROOF = Record(
    "bit proof",
    one("d0", ELEMENT), one("d1", ELEMENT),
    one("e0", SCALAR), one("e1", SCALAR), one("v0", SCALAR), one("v1", SCALAR),
    cls=BitProof, magic=b"repro.bitproof.v1", group=lambda proof: proof.d0.group,
    needs="bit proof needs 6 fields, got {got}",
)
_ONE_HOT = Record(
    "one-hot proof",
    one("randomness_sum", SCALAR), many("bit_proofs", nested(_BIT_PROOF), least=1),
    cls=OneHotProof, magic=b"repro.onehot.v1", group=lambda proof: proof.bit_proofs[0].d0.group,
    needs="one-hot proof needs randomness plus >= 1 bit proof",
)
_BIT_VECTOR = Record(
    "bit-vector proof",
    many("bit_proofs", nested(_BIT_PROOF), least=1),
    cls=BitVectorProof, magic=b"repro.bitvecproof.v1",
    needs="bit-vector proof needs >= 1 bit proof",
)
# Each proof family's own magic doubles as the union tag, so the decoder
# needs no out-of-band type information.
_VALIDITY = union("validity proof", _BIT_PROOF, _ONE_HOT, _BIT_VECTOR)

encode_bit_proof, decode_bit_proof = _BIT_PROOF.encode, _BIT_PROOF.decode
encode_one_hot_proof, decode_one_hot_proof = _ONE_HOT.encode, _ONE_HOT.decode
encode_bit_vector_proof, decode_bit_vector_proof = _BIT_VECTOR.encode, _BIT_VECTOR.decode
_validity_record, decode_validity_proof = _VALIDITY.helpers  # a proof's record; the decoder


def encode_validity_proof(proof) -> bytes:
    """Encode any client validity proof (Σ-OR bit / one-hot / bit-vector)."""
    return _validity_record(proof).encode(proof)


encode_commitment = Commitment.to_bytes  # the element's canonical encoding


def decode_commitment(group: Group, data: bytes) -> Commitment:
    return Commitment(group.from_bytes(data))


def encode_commitments(commitments) -> list[bytes]:
    """Encode many commitments, each by its element's canonical encoding."""
    return [c.element.to_bytes() for c in commitments]


# A wire frame is ``LP(WIRE_MAGIC, tag, body)``: versioned, tagged by the
# registry key and self-delimiting, so one ``decode_message`` recovers any
# protocol message from the board or a transport.

WIRE_MAGIC = b"repro.wire.v1"

_ENCODE_CACHE: dict[int, tuple] = {}


def _audit_record(m) -> Record:
    def statuses(enum) -> Record:
        def build(entries):
            try:
                return {party: enum(status) for party, status in entries}
            except ValueError as exc:
                raise EncodingError(f"unknown audit status: {exc}") from exc

        entry = Record("audit entry", one("party", text("party")), one("status", text("status")),
                       needs="audit entry needs (party, status)")
        return Record("audit entries", many("entries", nested(entry)), build=build,
                      get=lambda value: ([(p, status.value) for p, status in value.items()],))

    notes = Record("audit notes", many("notes", text("audit note")),
                   get=lambda notes: (notes,), build=list)
    return Record("audit record", one("clients", nested(statuses(m.ClientStatus))),
                  one("provers", nested(statuses(m.ProverStatus))), one("notes", nested(notes)),
                  cls=m.AuditRecord, needs="audit record needs clients, provers and notes")


def _message_records(m) -> dict:
    """tag -> record of every message type in :mod:`repro.core.messages`."""
    double = "{} must be an 8-byte big-endian double".format
    return {
        b"client-broadcast": Record(
            "client broadcast", one("client_id", text("client id")),
            count("provers", uint("prover count", 1 << 16)),
            count("dimension", uint("dimension", 1 << 24)),
            many("share_commitments", COMMITMENT, "provers", "dimension"),
            one("validity_proof", _VALIDITY), cls=m.ClientBroadcast,
            needs="client broadcast needs id, shape and proof",
            ragged="ragged share commitment matrix"),
        b"client-share": Record(  # openings as (value, randomness) part pairs
            "client share message", one("client_id", text("client id")),
            many("openings", uint("opening"), least=2, step=2), cls=m.ClientShareMessage,
            get=lambda message: (message.client_id, [
                x for o in message.openings for x in (o.value, o.randomness)]),
            build=lambda client_id, flat: m.ClientShareMessage(
                client_id, tuple(map(Opening, flat[::2], flat[1::2]))),
            needs="client share message needs id plus (value, r) pairs"),
        b"coin-commitments": Record(
            "coin message", one("prover_id", text("prover id")),
            count("rows", uint("row count", 1 << 24)),
            count("lanes", uint("lane count", 1 << 16)),
            many("commitments", COMMITMENT, "rows", "lanes"),
            many("proofs", nested(_BIT_PROOF), "rows", "lanes"),
            cls=m.CoinCommitmentMessage, needs="coin message needs prover id and shape",
            ragged="ragged coin commitment message"),
        b"prover-output": Record(
            "prover output", one("prover_id", text("prover id")),
            count("lanes", uint("lane count", 1 << 16)),
            many("y", uint("y"), "lanes"), many("z", uint("z"), "lanes"),
            cls=m.ProverOutputMessage, needs="prover output needs id and lane count",
            ragged="prover output y/z length mismatch"),
        b"morra-commit": Record(
            "morra commit", one("sender", text("sender")),
            many("digests", raw(32, "morra commitment digests must be 32 bytes"), least=1),
            cls=m.MorraCommitMessage, needs="morra commit needs sender and >= 1 digest"),
        b"morra-reveal": Record(
            "morra reveal", one("sender", text("sender")),
            many("values", uint("morra value"), least=1),
            cls=m.MorraRevealMessage, needs="morra reveal needs sender and >= 1 value"),
        b"release": Record(
            "release", count("lanes", uint("lane count", 1 << 16)),
            many("raw", uint("raw"), "lanes"),
            many("estimate", f64(double("estimate")), "lanes"),
            one("accepted", flag(b"\x01", b"\x00", "release accepted flag must be one byte 0/1")),
            one("epsilon", f64(double("epsilon"))), one("delta", f64(double("delta"))),
            one("audit", nested(_audit_record(m))), cls=m.Release, least=1,
            needs="release needs a lane count", ragged="release raw/estimate length mismatch"),
    }


def encode_message(message) -> bytes:
    """Encode any registered protocol message as a tagged, versioned frame."""
    registry, tags = _registry()
    tag = tags.get(type(message))
    if tag is None:
        raise EncodingError(f"no wire codec for {type(message).__name__}")
    return encode_length_prefixed(WIRE_MAGIC, tag, registry[tag][1].encode(message))


def decode_message(group: Group, data: bytes):
    """Decode a frame produced by :func:`encode_message`.  Anything malformed
    raises :class:`EncodingError` (:class:`NotOnGroupError` for a bad
    element): a hostile frame is refused, never a crash or a non-element."""
    parts = decode_length_prefixed(data)
    if len(parts) != 3:
        raise EncodingError("wire frame needs (magic, tag, body)")
    if parts[0] != WIRE_MAGIC:
        raise EncodingError(f"bad wire magic (expected {WIRE_MAGIC!r})")
    entry = _registry()[0].get(parts[1])
    if entry is None:
        raise EncodingError(f"unknown wire tag {parts[1]!r}")
    return entry[1].decode(group, parts[2])


def wire_size(message) -> int | None:
    """Exact encoded size of a registered message, from its record and
    without encoding it; None when unregistered.  :mod:`repro.mpc.bus`
    charges it, so communication numbers are real wire bytes."""
    registry, tags = _registry()
    tag = tags.get(type(message))
    if tag is None:
        return None
    return 3 * 4 + len(WIRE_MAGIC) + len(tag) + registry[tag][1].size(message)


def encode_message_cached(message) -> bytes:
    """Like :func:`encode_message`, memoized per live message object: a
    front-end ships the *same* message to K servers or S shards, K
    identical encodings without it.  Messages are frozen dataclasses, so
    caching by identity is sound; a weakref finalizer evicts the entry
    when the message dies."""
    key = id(message)
    entry = _ENCODE_CACHE.get(key)
    if entry is not None and entry[0]() is message:
        return entry[1]
    data = encode_message(message)
    try:
        ref = weakref.ref(message, lambda _ref, _key=key: _ENCODE_CACHE.pop(_key, None))
    except TypeError:  # pragma: no cover - all registry types support weakref
        return data
    _ENCODE_CACHE[key] = (ref, data)
    return data


# Part indices of the announcements in a bit proof's body, after its magic.
_D0, _D1 = (1 + [f.name for f in _BIT_PROOF.fields].index(n) for n in ("d0", "d1"))


def advance_coin_transcript_frame(params, transcript, frame: bytes) -> None:
    """Fast-forward a coin stream's transcript over a chunk's *wire frame*
    without decoding (or checking membership of) its group elements.

    Per coin it absorbs pp, the commitment and both announcements verbatim
    and draws the challenge, exactly as :func:`~repro.crypto.sigma.or_bit.verify_bit`
    does, so the next chunk's verification starts from the identical
    state: a shard replays the chunks another shard checks by parsing and
    hashing alone.  It walks the coin record's layout."""
    outer = decode_length_prefixed(frame)
    if len(outer) != 3:
        raise EncodingError("not a wire frame")
    record = _registry()[0][b"coin-commitments"][1]
    body = decode_length_prefixed(outer[2])
    if len(body) < record.least:
        raise EncodingError("not a coin message frame")
    spans = record.layout(body)
    if spans[-1][2] != len(body):
        raise EncodingError("coin message frame shape mismatch")
    fields = {field.name: body[start:stop] for field, start, stop in spans}
    pedersen = params.pedersen
    pp = pedersen.transcript_bytes()
    for commitment_bytes, proof_frame in zip(fields["commitments"], fields["proofs"]):
        proof_parts = decode_length_prefixed(proof_frame)
        if len(proof_parts) != 1 + len(_BIT_PROOF.fields):
            raise EncodingError("bit proof frame needs magic plus 6 fields")
        transcript.append_bytes("pp", pp)
        transcript.append_bytes("bit-commitment", commitment_bytes)
        transcript.append_bytes("d0", proof_parts[_D0])
        transcript.append_bytes("d1", proof_parts[_D1])
        transcript.challenge_scalar("or-challenge", pedersen.q)


def _registry() -> tuple[dict, dict]:
    """(tag -> (type, record), type -> tag) of every registered message."""
    return _REGISTRY, _TAG_BY_TYPE


# Built last, at import, so that forked peers inherit compiled codecs.
# ``repro.core.messages`` is imported here, not at the top, because the
# ``repro.core`` package imports this module.
from repro.core import messages  # noqa: E402

_REGISTRY = {tag: (record.cls, record) for tag, record in _message_records(messages).items()}
_TAG_BY_TYPE = {cls: tag for tag, (cls, _) in _REGISTRY.items()}
