"""The coin path's counted calls, pinned on one small streamed session.

The named benchmark's golden step compares traced counters — Fiat–Shamir
absorbs, RNG draws, proofs folded, Morra bits — at full size, in CI.
This test counts the same calls the same way (wrappers on the public
callables, and the tracer's label + payload byte formula) on a seeded
streamed :class:`Session` small enough for tier-1: p64-sim, K = 2,
nb = 64, chunks of 16, 8 clients.  A fast path that skips a counted call
— a fused transcript method, a draw of two values at once, a proof
folded without ``add_bit_proof``, a commitment pass outside
``commit_many`` — moves a count here in about a second, and a moved
byte moves the release digest.  Every expected value was recorded
before the coin path's fast paths went in.

Needs nothing beyond the standard library and pytest.
"""

import hashlib
from collections import Counter

import pytest

from repro.api import CountQuery, Session
from repro.api import engine
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.pedersen import PedersenParams
from repro.crypto.serialization import encode_message
from repro.crypto.sigma.batch import SigmaBatch
from repro.utils.rng import SeededRNG, SystemRNG

EXPECTED = {
    "release_sha256": "38153493d049d2b1385e7732b09aaa1075320e0ea3d28353a6de5fca1fe3a8ca",
    "SeededRNG.random_bytes": 1870,
    "SystemRNG.random_bytes": 272,  # the verifier's γ weights: 2 per folded proof
    "Transcript.calls": 1704,
    "Transcript.absorbed_bytes": 30404,
    "Transcript.challenge_bytes": 272,
    "SigmaBatch.add_bit_proof": 136,
    "PedersenParams.commit_many": 56,
    "morra_bits": 128,
}


def _int_size(label, value, width=None):
    return len(label) + (width if width is not None else max(1, (value.bit_length() + 7) // 8))


# Public Transcript methods -> label + payload bytes one call absorbs,
# from (result, arguments after self) — the benchmark tracer's formula.
_TRANSCRIPT = {
    "__init__": lambda result, domain: 6 + len(domain),
    "append_bytes": lambda result, label, payload: len(label) + len(payload),
    "append_int": lambda result, *args, **kwargs: _int_size(*args, **kwargs),
    "append_element": lambda result, label, element: len(label) + len(element.to_bytes()),
    "append_elements": lambda result, label, elements: sum(
        len(f"{label}[{i}]") + len(element.to_bytes()) for i, element in enumerate(elements)
    ),
    "append_str": lambda result, label, text: len(label) + len(text.encode()),
    "challenge_bytes": lambda result, label, n: len(label) + len(result),
    "challenge_scalar": lambda result, label, modulus: 0,
    "fork": lambda result, label: 4 + len(label),
    "clone": lambda result: 0,
}


def install_counters(patch: pytest.MonkeyPatch) -> Counter:
    """Wrap every counted callable; the returned counter fills as they run."""
    counted = Counter()

    def wrap(owner, name, *keys, absorbed=None):
        original = owner.__dict__[name]

        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            counted.update(keys)
            if absorbed is not None:
                counted["Transcript.absorbed_bytes"] += absorbed(result, *args[1:], **kwargs)
            return result

        patch.setattr(owner, name, call)

    for name, absorbed in _TRANSCRIPT.items():
        keys = ["Transcript.calls"] + (["Transcript." + name] if name == "challenge_bytes" else [])
        wrap(Transcript, name, *keys, absorbed=absorbed)
    wrap(SeededRNG, "random_bytes", "SeededRNG.random_bytes")
    wrap(SystemRNG, "random_bytes", "SystemRNG.random_bytes")
    wrap(SigmaBatch, "add_bit_proof", "SigmaBatch.add_bit_proof")
    wrap(PedersenParams, "commit_many", "PedersenParams.commit_many")
    run_morra_batch = engine.run_morra_batch

    def morra(participants, q, count, **kwargs):
        counted["morra_bits"] += count
        return run_morra_batch(participants, q, count, **kwargs)

    patch.setattr(engine, "run_morra_batch", morra)
    return counted


def _release() -> bytes:
    session = Session(
        CountQuery(1.0, 2**-10),
        num_provers=2,
        group="p64-sim",
        nb_override=64,
        chunk_size=16,
        rng=SeededRNG("hot-path-counts"),
    )
    session.submit([1, 0, 1, 1, 0, 0, 1, 0])
    result = session.release()
    assert result.release.accepted
    return encode_message(result.release)


def test_the_coin_path_makes_the_counted_calls_it_made(monkeypatch):
    counted = install_counters(monkeypatch)
    release = _release()
    observed = dict(counted, release_sha256=hashlib.sha256(release).hexdigest())
    assert {key: observed.get(key, 0) for key in EXPECTED} == EXPECTED


if __name__ == "__main__":  # print the counts of this checkout
    import json

    with pytest.MonkeyPatch.context() as patch:
        counted = install_counters(patch)
        digest = hashlib.sha256(_release()).hexdigest()
        print(json.dumps(dict(counted, release_sha256=digest), indent=4, sort_keys=True))
