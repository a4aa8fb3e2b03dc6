"""The wire registry is complete, and every codec in it is exact.

Two halves of one invariant.  :func:`test_every_message_has_exactly_one_tag`
checks the registry's *shape*: every frozen dataclass defined in
:mod:`repro.core.messages` is a ``_registry()`` value exactly once, every
value is such a class, and every tag is ``bytes`` (this was lint rule
REP002; the number is not reused).  A duplicate tag in the registry's
dict literal silently drops a class, so "exactly once" catches that too.

The rest instantiate a representative of every type the registry knows
about, encode, decode, and demand identity plus canonical re-encoding.
The tests enumerate the registry itself, so registering a new message
type automatically extends coverage: the build fails with an explicit
"add a builder" message until the new type gets a representative here,
and the codec bug class (field dropped in encode, order swapped in
decode) is caught without waiting for a distributed smoke test to
happen to send that message.

The size tests hold ``wire_size`` — which sizes coin chunks and Morra
rounds from their shape instead of encoding them — to the encoder's
length on every representative, on every hostile variant that decodes,
and on the ragged and empty shapes the bus accounts.

The last test is the backend differential: the pure and the libsodium
ristretto255 must agree on every frame here and on its hostile variants.
"""

import dataclasses

import pytest

from repro.core import messages as m
from repro.core.params import setup
from repro.crypto.group import GroupElement
from repro.crypto.ristretto import RistrettoGroup
from repro.crypto.serialization import (
    _registry,
    decode_message,
    encode_message,
    wire_size,
)
from repro.crypto.sodium import SodiumRistrettoGroup
from repro.errors import EncodingError, NotOnGroupError
from repro.mpc.bus import _payload_size
from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed
from repro.utils.rng import SeededRNG


@pytest.fixture(scope="module", params=["p64-sim", "p128-sim", "ristretto255"])
def params(request):
    return setup(1.0, 2**-10, num_provers=2, group=request.param, nb_override=31)


def _enrollment(params):
    from repro.api.queries import CountQuery

    query = CountQuery(epsilon=1.0, delta=2**-10)
    client = query.make_client("client-0", 1, SeededRNG("rt-client"))
    return client.submit(params)


def _build_client_broadcast(params):
    broadcast, _ = _enrollment(params)
    return [broadcast]


def _build_client_share(params):
    _, privates = _enrollment(params)
    return list(privates)


def _build_coin_commitments(params):
    from repro.core.prover import Prover

    prover = Prover("prover-0", params, SeededRNG("rt-coins"))
    prover.begin_coin_stream(b"rt-ctx")
    return [prover.commit_coin_chunk(3)]


def _build_prover_output(params):
    return [m.ProverOutputMessage(prover_id="prover-1", y=(3, 5), z=(7, 11))]


def _build_morra_commit(params):
    return [
        m.MorraCommitMessage(sender="verifier", digests=(b"\x01" * 32, b"\x02" * 32))
    ]


def _build_morra_reveal(params):
    return [m.MorraRevealMessage(sender="verifier", values=(0, 1, params.q - 1))]


def _build_release(params):
    audit = m.AuditRecord(
        clients={
            "client-0": m.ClientStatus.VALID,
            "client-1": m.ClientStatus.INVALID_PROOF,
        },
        provers={
            "prover-0": m.ProverStatus.HONEST,
            "prover-1": m.ProverStatus.FAILED_FINAL_CHECK,
        },
    )
    audit.note("prover-1: Line 13 check failed")
    return [
        m.Release(
            raw=(17, 3),
            estimate=(1.5, -2.25),
            accepted=False,
            audit=audit,
            epsilon=0.88,
            delta=2**-10,
        )
    ]


# type -> builder returning representative instances.  Extend this when
# registering a new message type; test_every_registered_type_has_a_builder
# names the gap explicitly otherwise.
BUILDERS = {
    m.ClientBroadcast: _build_client_broadcast,
    m.ClientShareMessage: _build_client_share,
    m.CoinCommitmentMessage: _build_coin_commitments,
    m.ProverOutputMessage: _build_prover_output,
    m.MorraCommitMessage: _build_morra_commit,
    m.MorraRevealMessage: _build_morra_reveal,
    m.Release: _build_release,
}

_TAGS = sorted(_registry()[0])


def test_every_registered_type_has_a_builder():
    registry, _ = _registry()
    registered = {entry[0] for entry in registry.values()}
    missing = sorted(cls.__name__ for cls in registered - set(BUILDERS))
    assert not missing, (
        f"registered message types without a round-trip builder: {missing} "
        "— add a builder to BUILDERS in this file so encode→decode "
        "identity stays exercised for every wire type"
    )
    stale = sorted(cls.__name__ for cls in set(BUILDERS) - registered)
    assert not stale, f"builders for unregistered types (remove them): {stale}"


def _registry_gaps(registry):
    """Every way ``registry`` breaks "one bytes tag per frozen message"."""
    messages = {
        cls for cls in vars(m).values()
        if isinstance(cls, type) and cls.__module__ == m.__name__
        and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    }
    types = [entry[0] for entry in registry.values()]
    gaps = [f"tag {tag!r} is not bytes" for tag in registry if not isinstance(tag, bytes)]
    gaps += [f"{cls.__name__} is not a frozen message" for cls in types if cls not in messages]
    gaps += [
        f"{cls.__name__} has {types.count(cls)} registry entries"
        for cls in sorted(messages, key=lambda cls: cls.__name__) if types.count(cls) != 1
    ]
    return gaps


def test_every_message_has_exactly_one_tag():
    assert _registry_gaps(_registry()[0]) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda reg: reg.pop(b"release"),
        lambda reg: reg.update({b"audit": (m.AuditRecord, None, None)}),
        lambda reg: reg.update({b"release-again": reg[b"release"]}),
    ],
    ids=["frozen-message-without-entry", "entry-not-a-message", "one-type-two-tags"],
)
def test_registry_gaps_are_found(tamper):
    registry = dict(_registry()[0])
    tamper(registry)
    assert _registry_gaps(registry)


@pytest.mark.parametrize("tag", _TAGS)
def test_registered_codec_roundtrip_identity(params, tag):
    registry, _ = _registry()
    cls = registry[tag][0]
    builder = BUILDERS.get(cls)
    if builder is None:
        pytest.fail(f"no builder for {cls.__name__} (tag {tag!r})")
    for message in builder(params):
        data = encode_message(message)
        restored = decode_message(params.group, data)
        assert restored == message, f"{cls.__name__} (tag {tag!r}) not identical"
        assert encode_message(restored) == data, (
            f"{cls.__name__} (tag {tag!r}) re-encoding is not canonical"
        )


@pytest.mark.parametrize("tag", _TAGS)
def test_hostile_frames_raise_only_decoding_errors(params, tag, mutations):
    """``decode_message``'s promise on hostile bytes: a message, or
    ``EncodingError`` / ``NotOnGroupError`` — any other exception escapes
    and fails the test."""
    cls = _registry()[0][tag][0]
    for message in BUILDERS[cls](params):
        data = encode_message(message)
        for frame in mutations(data, 64, f"{params.group.name}-{tag!r}"):
            try:
                decode_message(params.group, frame)
            except (EncodingError, NotOnGroupError):
                pass


@pytest.mark.parametrize("tag", _TAGS)
def test_wire_size_equals_encoded_length(params, tag, mutations):
    """Every representative, and every mutation of its frame that still
    decodes, sizes to exactly the length of its (re-)encoding.  The next
    test builds the non-canonical frames a mutation rarely hits."""
    cls = _registry()[0][tag][0]
    for message in BUILDERS[cls](params):
        data = encode_message(message)
        assert wire_size(message) == len(data)
        for frame in mutations(data, 64, f"size-{params.group.name}-{tag!r}"):
            try:
                decoded = decode_message(params.group, frame)
            except (EncodingError, NotOnGroupError):
                continue
            assert wire_size(decoded) == len(encode_message(decoded)), frame.hex()


def _with_body_part(frame: bytes, replace) -> bytes:
    """``frame`` with its body's parts passed through ``replace``."""
    magic, tag, body = decode_length_prefixed(frame)
    return encode_length_prefixed(
        magic, tag, encode_length_prefixed(*replace(decode_length_prefixed(body)))
    )


def test_wire_size_of_non_canonical_frames(params):
    """Decoded values need not be canonical: a bit-proof scalar one byte
    wider than ``scalar_bytes`` and at least q, and a Morra value with
    leading zero bytes, re-encode shorter than their frame — and the
    shape-derived size follows the re-encoding, not the frame."""
    group, width = params.group, params.group.scalar_bytes
    coin = BUILDERS[m.CoinCommitmentMessage](params)[0]

    def wide_scalar(parts):
        proof = decode_length_prefixed(parts[-1])
        proof[3] = (params.q + 5).to_bytes(width + 1, "big")
        return [*parts[:-1], encode_length_prefixed(*proof)]

    reveal = m.MorraRevealMessage(sender="verifier", values=(5, 0, params.q - 1))

    def padded_values(parts):
        return [parts[0], *(b"\x00\x00" + part for part in parts[1:])]

    for frame in (
        _with_body_part(encode_message(coin), wide_scalar),
        _with_body_part(encode_message(reveal), padded_values),
    ):
        decoded = decode_message(group, frame)
        assert len(encode_message(decoded)) < len(frame)
        assert wire_size(decoded) == len(encode_message(decoded))


def test_bus_sizes_ragged_and_empty_messages():
    """Shapes the size functions decline are sized by encoding: an empty
    one is charged its frame, a ragged or negative one fails to encode and
    falls to the bus's estimate (0 for a dataclass).  Pinned values."""
    params = setup(1.0, 2**-10, num_provers=2, group="p64-sim", nb_override=31)
    coin = BUILDERS[m.CoinCommitmentMessage](params)[0]
    (c0,), (p0,) = coin.commitments[0], coin.proofs[0]
    cases = {
        "empty": (m.CoinCommitmentMessage("prover-0", (), ()), 63),
        "no-lanes": (m.CoinCommitmentMessage("prover-0", ((),), ((),)), 63),
        "ragged-rows": (
            m.CoinCommitmentMessage("prover-0", ((c0,), (c0, c0)), ((p0,), (p0, p0))),
            0,
        ),
        "proof-rows-short": (
            m.CoinCommitmentMessage("prover-0", ((c0,), (c0,)), ((p0,),)),
            0,
        ),
        "proof-lanes-short": (
            m.CoinCommitmentMessage("prover-0", ((c0, c0),), ((p0,),)),
            0,
        ),
        "commit-empty": (m.MorraCommitMessage("verifier", ()), 49),
        "reveal-empty": (m.MorraRevealMessage("verifier", ()), 49),
        "reveal-negative": (m.MorraRevealMessage("verifier", (1, -1)), 0),
    }
    sizes = {name: _payload_size(message) for name, (message, _) in cases.items()}
    assert sizes == {name: size for name, (_, size) in cases.items()}


@pytest.fixture(scope="module")
def ristretto_backends():
    """The reference ristretto255 params and the libsodium group."""
    native = SodiumRistrettoGroup.instance()
    if native is None:
        pytest.skip("libsodium with ristretto255 is not loadable on this host")
    pure = setup(
        1.0, 2**-10, num_provers=2, group=RistrettoGroup.instance(), nb_override=31
    )
    return pure, native


def _first_element(value):
    """The first group element of a message, in field order (or None)."""
    if isinstance(value, GroupElement):
        return value
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        for item in value:
            found = _first_element(item)
            if found is not None:
                return found
    return None


def _decoded(group, frame):
    """What ``frame`` decodes to on ``group``: the re-encoded message, or
    the type of the exception raised."""
    try:
        return encode_message(decode_message(group, frame))
    except Exception as exc:  # any type, compared across the backends
        return type(exc)


@pytest.mark.parametrize("tag", _TAGS)
def test_backends_agree_on_hostile_frames(ristretto_backends, tag, mutations):
    """ROADMAP 5(c): the pure and the libsodium ristretto255 decode every
    builder frame, its 64 mutations and PR 17's bit-255 trap (the top bit
    of the first element encoding set) to the same bytes or the same
    exception type."""
    pure, native = ristretto_backends
    cls = _registry()[0][tag][0]
    for message in BUILDERS[cls](pure):
        data = encode_message(message)
        frames = [data, *mutations(data, 64, f"backends-{tag!r}")]
        element = _first_element(message)
        if element is not None:
            at = data.index(element.to_bytes()) + 31
            trap = data[:at] + bytes([data[at] | 0x80]) + data[at + 1:]
            assert _decoded(pure.group, trap) is NotOnGroupError
            frames.append(trap)
        for frame in frames:
            assert _decoded(pure.group, frame) == _decoded(native, frame), frame.hex()
