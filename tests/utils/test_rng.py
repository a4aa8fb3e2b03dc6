"""Randomness sources: determinism, bounds, independence."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.utils import rng as rng_module
from repro.utils.rng import SeededRNG, SystemRNG, default_rng

# SHA-256 of the first 4,096 stream bytes.  Recorded protocol transcripts,
# golden releases and the benchmark's digests all rest on this stream.
PINNED_STREAMS = {
    "int": (12345, "b190c802a6ca910a8e7434034ca15eba782181f77ddf2eed34f4df96c208f470"),
    "bytes": (b"pin-bytes", "6de0885d7c450e73e5ee6f9b7abae2fa545e36dc2c40baa5c819d0b680ff930d"),
    "str": ("pin-str", "418f30394f88b562cd35130f7ffdc92f4abc5336b89edae3bd2f51e62f197247"),
}
PINNED_FORK = "0a5302afb68037a5358d132822f77775ccda66d37272d90399f50e19dba061ba"

# Group orders of p64-sim, p128-sim and ristretto255.
ORDERS = {
    "p64": 5082770254031145953,
    "p128": 140785608711660918255399474244567502171,
    "ristretto": 7237005577332262213973186563042994240857116359379907606001950938285454250989,
}
# (order, method) -> (random_bytes calls for 64 draws, SHA-256 prefix of the
# drawn values).  Rejection sampling makes the two below-q methods draw
# more than 64 times; the counts pin that every attempt is one call.
PINNED_DRAWS = {
    ("p64", "field_element"): (104, "17908a343eb93e3f"),
    ("p64", "randbelow"): (104, "17908a343eb93e3f"),
    ("p64", "randbits"): (64, "f249c54e497b728d"),
    ("p128", "field_element"): (80, "2bbbd53460100e63"),
    ("p128", "randbelow"): (80, "2bbbd53460100e63"),
    ("p128", "randbits"): (64, "beca33840618b6d6"),
    ("ristretto", "field_element"): (114, "da888c3f87a1c84e"),
    ("ristretto", "randbelow"): (114, "da888c3f87a1c84e"),
    ("ristretto", "randbits"): (64, "549961602275ff39"),
}


class _CountingRNG(SeededRNG):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random_bytes(self, n):
        self.calls += 1
        return super().random_bytes(n)


class TestPinnedStream:
    @pytest.mark.parametrize("kind", sorted(PINNED_STREAMS))
    def test_stream_digest(self, kind):
        seed, digest = PINNED_STREAMS[kind]
        assert hashlib.sha256(SeededRNG(seed).random_bytes(4096)).hexdigest() == digest

    def test_fork_digest(self):
        child = SeededRNG("pin-str").fork("child")
        assert hashlib.sha256(child.random_bytes(4096)).hexdigest() == PINNED_FORK

    @pytest.mark.parametrize("sizes", [(1,), (7, 32, 33), (1000,)], ids=str)
    def test_splitting_does_not_change_the_stream(self, sizes):
        rng, out = SeededRNG(12345), bytearray()
        for size in itertools.cycle(sizes):
            if len(out) >= 4096:
                break
            out += rng.random_bytes(size)
        assert hashlib.sha256(out[:4096]).hexdigest() == PINNED_STREAMS["int"][1]

    @pytest.mark.parametrize("order, method", sorted(PINNED_DRAWS))
    def test_draw_counts(self, order, method):
        q = ORDERS[order]
        rng = _CountingRNG(f"draws-{order}")
        arg = q.bit_length() if method == "randbits" else q
        values = [getattr(rng, method)(arg) for _ in range(64)]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        assert (rng.calls, digest) == PINNED_DRAWS[(order, method)]

    def test_draws_hash_only_the_blocks_they_need(self, monkeypatch):
        rng = SeededRNG("blocks")
        hashed = []

        class _Hashlib:
            @staticmethod
            def sha256(data):
                hashed.append(data)
                return hashlib.sha256(data)

        monkeypatch.setattr(rng_module, "hashlib", _Hashlib)
        rng.random_bytes(32)
        assert len(hashed) == 1  # a fresh stream's first 32 bytes: one block
        rng.random_bytes(0)
        rng.random_bytes(31)
        assert len(hashed) == 2
        rng.random_bytes(1)
        rng.random_bytes(65)
        assert len(hashed) == 5


class TestSeededRNG:
    def test_deterministic(self):
        a = SeededRNG("seed").random_bytes(64)
        b = SeededRNG("seed").random_bytes(64)
        assert a == b

    def test_different_seeds_differ(self):
        assert SeededRNG("a").random_bytes(32) != SeededRNG("b").random_bytes(32)

    def test_int_and_bytes_seeds(self):
        assert SeededRNG(42).random_bytes(8) == SeededRNG(42).random_bytes(8)
        assert SeededRNG(b"x").random_bytes(8) == SeededRNG(b"x").random_bytes(8)

    def test_fork_is_independent(self):
        parent = SeededRNG("p")
        child1 = parent.fork("a")
        child2 = parent.fork("b")
        assert child1.random_bytes(16) != child2.random_bytes(16)

    def test_fork_does_not_disturb_parent(self):
        p1 = SeededRNG("p")
        p2 = SeededRNG("p")
        p1.fork("child")
        assert p1.random_bytes(16) == p2.random_bytes(16)

    def test_stream_continuation(self):
        one = SeededRNG("s")
        two = SeededRNG("s")
        combined = one.random_bytes(10) + one.random_bytes(10)
        assert combined == two.random_bytes(20)


class TestBounds:
    @given(st.integers(min_value=1, max_value=2**64))
    def test_randbelow_in_range(self, bound):
        rng = SeededRNG(f"b{bound}")
        for _ in range(5):
            assert 0 <= rng.randbelow(bound) < bound

    @given(st.integers(min_value=1, max_value=256))
    def test_randbits_width(self, bits):
        assert 0 <= SeededRNG("w").randbits(bits) < (1 << bits)

    def test_randrange(self):
        rng = SeededRNG("r")
        for _ in range(20):
            assert 5 <= rng.randrange(5, 10) < 10

    def test_negative_int_seed_is_a_parameter_error(self):
        with pytest.raises(ParameterError):
            SeededRNG(-1)

    def test_negative_byte_count_is_a_parameter_error(self):
        rng = SeededRNG("x")
        first = rng.random_bytes(3)
        with pytest.raises(ParameterError):
            rng.random_bytes(-1)
        assert first + rng.random_bytes(5) == SeededRNG("x").random_bytes(8)

    def test_invalid_args(self):
        rng = SeededRNG("x")
        with pytest.raises(ParameterError):
            rng.randbelow(0)
        with pytest.raises(ParameterError):
            rng.randbits(0)
        with pytest.raises(ParameterError):
            rng.randrange(3, 3)

    def test_nonzero_field_element(self):
        rng = SeededRNG("nz")
        for _ in range(50):
            assert 1 <= rng.nonzero_field_element(7) < 7

    def test_coin_distribution(self):
        rng = SeededRNG("coins")
        flips = [rng.coin() for _ in range(2000)]
        assert 800 < sum(flips) < 1200  # ~14 sigma window


class TestShuffle:
    def test_shuffle_is_permutation(self):
        rng = SeededRNG("sh")
        items = list(range(30))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


class TestSystemRNG:
    def test_produces_requested_bytes(self):
        assert len(SystemRNG().random_bytes(17)) == 17

    def test_default_rng(self):
        assert isinstance(default_rng(None), SystemRNG)
        marker = SeededRNG("m")
        assert default_rng(marker) is marker
