"""Node-protocol framing over the typed message registry: setup specs
(public parameters and plans, so every process rebuilds the same
fingerprint), enrollment bundles (a client's broadcast plus its K share
messages), RPC/reply envelopes between :class:`~repro.net.nodes.RemoteProver`
and :class:`~repro.net.nodes.ServerNode`, control frames and small
list/matrix payloads.

Each frame is declared once below as a :class:`~repro.crypto.schema.Record`
and its codec derives from it.  Malformed input raises
:class:`~repro.errors.EncodingError`, never a crash — a params or plan
spec that parses but that ``PublicParams`` or ``AggregationPlan``
refuses included.  Format v1
decodes every uint here loosely (leading zero bytes, no upper limit):
params' nb/K/M, a plan's counts and weights, int lists, a bit matrix's
shape.
"""

from __future__ import annotations

from functools import partial

from repro.core.messages import ClientBroadcast, ClientShareMessage
from repro.core.params import PublicParams, _resolve_group
from repro.core.plan import AggregationPlan
from repro.crypto.pedersen import PedersenParams
from repro.crypto.schema import Record, count, f64, flag, many, nested, one, raw, text, uint
from repro.crypto.serialization import decode_message, encode_message
from repro.errors import EncodingError, ParameterError, ReproError
from repro.utils.encoding import decode_length_prefixed

__all__ = [
    "encode_params", "decode_params", "encode_plan", "decode_plan",
    "encode_enrollment", "decode_enrollment", "split_enrollment",
    "encode_control", "decode_control", "encode_rpc", "decode_rpc",
    "encode_reply", "encode_abort_reply", "decode_reply",
    "encode_str_list", "decode_str_list", "encode_bytes_list", "decode_bytes_list",
    "encode_int_list", "decode_int_list", "encode_bit_matrix", "decode_bit_matrix",
    "frame_kind",
]


def _listed(kind) -> Record:
    """A body that is nothing but a list of ``kind`` values."""
    return Record("list", many("items", kind), get=lambda items: (items,), build=list)


def _framed(what: str, magic: bytes, *fields, name=None, **options) -> Record:
    bad_magic = f"bad or missing {what} magic"
    return Record(name or what, *fields, magic=magic, bad_magic=bad_magic, **options)


def _params(group_name, epsilon, delta, nb, num_provers, dimension) -> PublicParams:
    try:
        group = _resolve_group(group_name)
    except (ReproError, ValueError) as exc:
        raise EncodingError(f"unknown group {group_name.encode()!r}: {exc}") from exc
    try:  # the checks a session's own parameters pass
        return PublicParams(PedersenParams(group), epsilon, delta, nb, num_provers, dimension)
    except ParameterError as exc:
        raise EncodingError(f"params spec refused: {exc}") from exc


def _plan(validity, dimension, lane_weights, noise_weights) -> AggregationPlan:
    lane_weights = tuple(map(tuple, lane_weights))
    if any(len(row) != dimension for row in lane_weights):
        raise EncodingError("plan lane weights do not match the declared dimension")
    try:  # the checks a query's own plan passes
        return AggregationPlan(lane_weights=lane_weights, noise_weights=tuple(noise_weights),
                               validity=validity)
    except ParameterError as exc:
        raise EncodingError(f"plan spec refused: {exc}") from exc


def _bit_rows(bits) -> tuple[int, int, bytes]:
    lanes = len(bits[0]) if bits else 0
    if any(len(row) != lanes for row in bits):
        raise EncodingError("ragged bit matrix")
    return len(bits), lanes, _bits(bytes(bit for row in bits for bit in row))


def _bit_matrix(rows, lanes, flat) -> list[list[int]]:
    # Both senders (a prover's absorb-bits, a shard's bits-chunk) send at
    # least one row and one lane; zero lanes would pass the length check
    # below and build ``rows`` empty lists.
    if rows < 1 or lanes < 1:
        raise EncodingError("bit matrix needs at least one row and one lane")
    if len(flat) != rows * lanes:
        raise EncodingError("bit matrix payload does not match its shape")
    flat = _bits(flat)
    return [list(flat[j * lanes : (j + 1) * lanes]) for j in range(rows)]


def _bits(flat: bytes) -> bytes:
    if flat.translate(None, b"\x00\x01"):
        raise EncodingError("bit matrix entries must be 0/1")
    return flat


_INT_LIST, _STR_LIST = _listed(uint("int list entry")), _listed(text("list entry"))
_BYTES_LIST = _listed(raw())
# Only *named* groups travel (the name is the agreement; both sides
# re-derive generators locally), and ε/δ go as exact IEEE doubles so the
# reconstructed fingerprint — bound into every transcript — matches.
_PARAMS = _framed(
    "params", b"repro.net.params.v1", one("group", text("group name")),
    one("epsilon", f64("params epsilon/delta must be 8-byte doubles")),
    one("delta", f64("params epsilon/delta must be 8-byte doubles")),
    one("nb", uint("nb")), one("num_provers", uint("num_provers")),
    one("dimension", uint("dimension")),
    get=lambda p: (p.group.name, p.epsilon, p.delta, p.nb, p.num_provers, p.dimension),
    build=_params, needs="params spec needs 6 fields",
)
_PLAN = _framed(
    "plan", b"repro.net.plan.v1", one("validity", text("plan validity")),
    count("lanes", uint("lanes"), least=0), one("dimension", uint("dimension")),
    many("lane_weights", nested(_INT_LIST), "lanes"), one("noise_weights", nested(_INT_LIST)),
    get=lambda p: (p.validity, p.dimension, p.lane_weights, p.noise_weights),
    build=_plan, name="plan spec", needs="plan spec needs validity, shape and weights",
)
# A client's broadcast frame and its K share frames.  Decoding only splits
# them: a sharded front-end forwards the broadcast to a shard verbatim, so
# a shard validates exactly the bytes the client sent.
_ENROLL = _framed(
    "enrollment", b"repro.net.enroll.v1", one("broadcast", raw()), many("shares", raw(), least=1),
    build=lambda broadcast, shares: (broadcast, list(shares)),
    needs="enrollment needs a broadcast and >= 1 share message",
)
_CONTROL = _framed(
    "control", b"repro.net.ctrl.v1", one("kind", text("control kind")), many("parts", raw()),
    build=lambda kind, parts: (kind, list(parts)), needs="control frame needs a kind",
)
_RPC = _framed(
    "rpc", b"repro.net.rpc.v1", one("method", text("rpc method")), many("parts", raw()),
    build=lambda method, parts: (method, list(parts)), needs="rpc frame needs a method",
)
# (ok, parts); an abort reply carries [reason].
_REPLY = _framed(
    "reply", b"repro.net.reply.v1",
    one("ok", flag(b"ok", b"abort", "reply frame needs an ok/abort status")), many("parts", raw()),
    build=lambda ok, parts: (ok, list(parts)), needs="reply frame needs an ok/abort status",
)
# A public-bit matrix (rows × lanes of {0,1}) as one byte per bit.
_BIT_MATRIX = Record(
    "bit matrix", one("rows", uint("rows")), one("lanes", uint("lanes")), one("bits", raw()),
    get=_bit_rows, build=_bit_matrix, needs="bit matrix needs (rows, lanes, bits)",
)
_KINDS = {_ENROLL.magic: "enroll", _CONTROL.magic: "ctrl", _RPC.magic: "rpc",
          _REPLY.magic: "reply", _PARAMS.magic: "params", _PLAN.magic: "plan"}

encode_params, decode_params = _PARAMS.encode, partial(_PARAMS.decode, None)
encode_plan, decode_plan = _PLAN.encode, partial(_PLAN.decode, None)
split_enrollment = partial(_ENROLL.decode, None)
decode_control, decode_rpc = partial(_CONTROL.decode, None), partial(_RPC.decode, None)
decode_reply = partial(_REPLY.decode, None)
encode_str_list, decode_str_list = _STR_LIST.encode, partial(_STR_LIST.decode, None)
encode_bytes_list, decode_bytes_list = _BYTES_LIST.encode, partial(_BYTES_LIST.decode, None)
encode_int_list, decode_int_list = _INT_LIST.encode, partial(_INT_LIST.decode, None)
encode_bit_matrix, decode_bit_matrix = _BIT_MATRIX.encode, partial(_BIT_MATRIX.decode, None)


def frame_kind(data: bytes) -> str:
    """Classify a frame by its leading magic ('enroll', 'ctrl', ...)."""
    parts = decode_length_prefixed(data)
    if not parts or parts[0] not in _KINDS:
        raise EncodingError("unknown frame kind")
    return _KINDS[parts[0]]


def _envelope(record: Record, head, *parts: bytes) -> bytes:
    """A control kind, RPC method or reply status, then opaque parts."""
    return record.encode((head, parts))


encode_control, encode_rpc = partial(_envelope, _CONTROL), partial(_envelope, _RPC)
encode_reply = partial(_envelope, _REPLY, True)


def encode_abort_reply(message: str) -> bytes:
    return _envelope(_REPLY, False, message.encode())


def encode_enrollment(broadcast, privates) -> bytes:
    return _ENROLL.encode((encode_message(broadcast), [encode_message(m) for m in privates]))


def decode_enrollment(group, data: bytes):
    broadcast_frame, private_frames = split_enrollment(data)
    broadcast = decode_message(group, broadcast_frame)
    privates = [decode_message(group, frame) for frame in private_frames]
    if not isinstance(broadcast, ClientBroadcast) or not all(
        isinstance(m, ClientShareMessage) for m in privates
    ):
        raise EncodingError("enrollment bundle has wrong message types")
    return broadcast, privates
