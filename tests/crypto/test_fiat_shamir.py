"""Transcript: domain separation, order sensitivity, challenge extraction."""

import hashlib
import random

import pytest

from repro.crypto.fiat_shamir import Transcript
from repro.errors import ParameterError


def challenge(t: Transcript) -> bytes:
    return t.challenge_bytes("c", 32)


class TestDomainSeparation:
    def test_same_inputs_same_challenge(self):
        a = Transcript("d")
        b = Transcript("d")
        a.append_int("x", 5)
        b.append_int("x", 5)
        assert challenge(a) == challenge(b)

    def test_different_domains_differ(self):
        a = Transcript("d1")
        b = Transcript("d2")
        assert challenge(a) != challenge(b)

    def test_empty_domain_rejected(self):
        with pytest.raises(ParameterError):
            Transcript("")

    def test_label_matters(self):
        a = Transcript("d")
        b = Transcript("d")
        a.append_int("x", 5)
        b.append_int("y", 5)
        assert challenge(a) != challenge(b)

    def test_message_split_unambiguous(self):
        """append("ab") then append("c") != append("a") then append("bc")."""
        a = Transcript("d")
        a.append_bytes("m", b"ab")
        a.append_bytes("m", b"c")
        b = Transcript("d")
        b.append_bytes("m", b"a")
        b.append_bytes("m", b"bc")
        assert challenge(a) != challenge(b)

    def test_order_matters(self):
        a = Transcript("d")
        a.append_int("x", 1)
        a.append_int("y", 2)
        b = Transcript("d")
        b.append_int("y", 2)
        b.append_int("x", 1)
        assert challenge(a) != challenge(b)


class TestChallenges:
    def test_extraction_chains(self):
        """A second challenge depends on the first extraction."""
        a = Transcript("d")
        c1 = a.challenge_bytes("one", 16)
        c2 = a.challenge_bytes("two", 16)
        b = Transcript("d")
        d2_first = b.challenge_bytes("two", 16)
        assert c1 != c2
        assert c2 != d2_first

    def test_challenge_scalar_range(self):
        t = Transcript("d")
        for i in range(20):
            q = 2**61 - 1
            s = t.challenge_scalar(f"s{i}", q)
            assert 0 <= s < q

    def test_challenge_scalar_small_modulus(self):
        t = Transcript("d")
        assert t.challenge_scalar("s", 2) in (0, 1)
        with pytest.raises(ParameterError):
            t.challenge_scalar("s", 1)

    def test_long_extraction(self):
        t = Transcript("d")
        data = t.challenge_bytes("long", 1000)
        assert len(data) == 1000

    def test_element_append(self, group64):
        a = Transcript("d")
        b = Transcript("d")
        a.append_element("g", group64.generator())
        b.append_element("g", group64.generator() ** 2)
        assert challenge(a) != challenge(b)

    def test_elements_append(self, group64):
        t = Transcript("d")
        t.append_elements("gs", [group64.generator(), group64.generator() ** 2])
        assert len(challenge(t)) == 32


class TestFork:
    def test_forks_differ_by_label(self):
        t = Transcript("d")
        t.append_int("x", 1)
        assert challenge(t.fork("a")) != challenge(t.fork("b"))

    def test_fork_does_not_mutate_parent(self):
        a = Transcript("d")
        b = Transcript("d")
        a.fork("child")
        assert challenge(a) == challenge(b)

    def test_fork_inherits_state(self):
        a = Transcript("d")
        a.append_int("x", 1)
        b = Transcript("d")
        b.append_int("x", 2)
        assert challenge(a.fork("f")) != challenge(b.fork("f"))


class _ReferenceTranscript:
    """The transcript as first written: four ``update`` calls per absorb
    and two state copies per challenge block."""

    def __init__(self, domain: str) -> None:
        self.state = hashlib.sha512(b"repro.transcript.v1")
        self.absorb(b"domain", domain.encode())

    def absorb(self, label: bytes, payload: bytes) -> None:
        self.state.update(len(label).to_bytes(4, "big"))
        self.state.update(label)
        self.state.update(len(payload).to_bytes(4, "big"))
        self.state.update(payload)

    def challenge_bytes(self, label: str, n: int) -> bytes:
        out = bytearray()
        counter = 0
        base = self.state.copy()
        base.update(b"challenge:" + label.encode())
        while len(out) < n:
            block = base.copy()
            block.update(counter.to_bytes(4, "big"))
            out += block.digest()
            counter += 1
        digest = bytes(out[:n])
        self.absorb(b"extracted:" + label.encode(), digest)
        return digest


class TestAgainstTheReference:
    """Random label/payload sequences and challenge lengths 1–200 (across
    the 64-byte digest): the one-update transcript gives the reference's
    every challenge."""

    LABELS = ["pp", "bit-commitment", "d0", "d1", "x", "é-label", "", "a" * 70]

    @pytest.mark.parametrize("seed", range(8))
    def test_same_challenges(self, seed, group64):
        rng = random.Random(f"transcript-reference/{seed}")
        fast, reference = Transcript(f"d{seed}"), _ReferenceTranscript(f"d{seed}")
        for _ in range(60):
            label = rng.choice(self.LABELS)
            move = rng.randrange(5)
            if move == 0:
                payload = rng.randbytes(rng.randrange(0, 150))
                fast.append_bytes(label, payload)
                reference.absorb(label.encode(), payload)
            elif move == 1:
                value = rng.getrandbits(rng.randrange(1, 300))
                fast.append_int(label, value)
                reference.absorb(label.encode(), value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big"))
            elif move == 2:
                element = group64.generator() ** rng.randrange(1, group64.order)
                fast.append_element(label, element)
                reference.absorb(label.encode(), element.to_bytes())
            elif move == 3:
                text = rng.choice(self.LABELS)
                fast.append_str(label, text)
                reference.absorb(label.encode(), text.encode())
            else:
                n = rng.randrange(1, 201)
                assert fast.challenge_bytes(label, n) == reference.challenge_bytes(label, n)
        assert fast.challenge_bytes("end", 200) == reference.challenge_bytes("end", 200)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_every_length_around_the_digest(self, n):
        fast, reference = Transcript("d"), _ReferenceTranscript("d")
        for label in ("c", "c", "other"):
            assert fast.challenge_bytes(label, n) == reference.challenge_bytes(label, n)
