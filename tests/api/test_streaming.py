"""Streaming sessions: chunked submission, incremental verification,
mid-stream cheater pinpointing, and the peak-memory regression guard."""

import gc
import tracemalloc

import pytest

from repro.api import CountQuery, HistogramQuery, Session
from repro.api.engine import ProtocolEngine
from repro.core.client import NonBinaryClient
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.params import setup
from repro.core.prover import NonBitCoinProver, OutputTamperingProver
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"
NB = 8


def streamed_session(chunk_size, *, seed="stream", nb=NB, query=None):
    return Session(
        query or CountQuery(1.0, 2**-10),
        group=GROUP,
        nb_override=nb,
        chunk_size=chunk_size,
        rng=SeededRNG(seed),
    )


class TestChunkedSubmission:
    BITS = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("chunk", [1, 7, NB])
    def test_chunk_sizes(self, chunk):
        session = streamed_session(chunk, seed=f"chunk-{chunk}")
        session.submit(self.BITS)
        result = session.release()
        assert result.accepted
        count = result.results[0]
        assert sorted(count.audit.valid_clients()) == sorted(
            f"client-{i}" for i in range(len(self.BITS))
        )
        assert abs(count.estimate - sum(self.BITS)) <= NB / 2

    def test_multiple_submit_calls_and_lazy_iterables(self):
        session = streamed_session(3, seed="multi")
        session.submit(iter(self.BITS[:5]))
        session.submit(iter(self.BITS[5:]))
        result = session.release()
        assert result.accepted
        assert len(result.results[0].audit.clients) == len(self.BITS)

    def test_streamed_histogram(self):
        session = streamed_session(
            2, seed="hist",
            query=HistogramQuery(bins=3, epsilon=1.0, delta=2**-10),
        )
        session.submit([0, 1, 0, 2, 0])
        result = session.release()
        assert result.accepted
        assert result.results[0].argmax() == 0

    def test_streamed_drops_public_messages(self):
        """Chunking is incompatible with bulletin replay by design: the
        messages are gone.  The one-chunk run retains them."""
        streamed = streamed_session(2, seed="drop")
        streamed.submit(self.BITS)
        engine_result = streamed.release().results[0].engine_result
        assert engine_result.broadcasts == []
        assert engine_result.coin_messages == []

        buffered = Session(
            CountQuery(1.0, 2**-10), group=GROUP, nb_override=NB,
            rng=SeededRNG("keep"),
        )
        buffered.submit(self.BITS)
        kept = buffered.release().results[0].engine_result
        assert len(kept.broadcasts) == len(self.BITS)
        assert len(kept.coin_messages) == 1


class TestMidStreamPinpointing:
    def test_invalid_client_named_during_enrollment(self):
        """A bad validity proof is pinpointed when its chunk folds —
        before release() is ever called."""
        session = streamed_session(2, seed="pin-client")
        session.submit([1, 0])
        session.submit([NonBinaryClient("evil", [7], SeededRNG("e")), 1])
        audit = session.engines[0].verifier.audit
        assert audit.clients["evil"] is ClientStatus.INVALID_PROOF
        assert audit.clients["client-0"] is ClientStatus.VALID
        result = session.release()
        assert result.accepted
        assert "evil" not in result.results[0].audit.valid_clients()

    def test_cheating_coin_prover_caught_in_first_chunk(self):
        """A non-bit coin is named (with its global coin index) from the
        chunk that carries it; later chunks never run."""
        params = setup(1.0, 2**-10, group=GROUP, nb_override=NB)
        cheater = NonBitCoinProver("prover-0", params, SeededRNG("cheat"))
        engine = ProtocolEngine(
            params, provers=[cheater], rng=SeededRNG("run"), chunk_size=2
        )
        engine.submit_clients([])
        release = engine.run_release().release
        assert not release.accepted
        audit = release.audit
        assert audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
        assert any("coin 0" in note for note in audit.notes)

    def test_injecting_prover_caught_at_every_chunk_size(self):
        """Ballot stuffing cheats through the _emit_output hook, the last
        step of finish_output, and is caught whatever the chunking."""
        from repro.core.client import Client
        from repro.core.prover import InputInjectingProver

        for chunk_size in (None, 3):
            params = setup(1.0, 2**-10, group=GROUP, nb_override=NB)
            cheater = InputInjectingProver(
                "prover-0", params, SeededRNG("inj"), extra=4
            )
            engine = ProtocolEngine(
                params, provers=[cheater], rng=SeededRNG("inj-run"),
                chunk_size=chunk_size,
            )
            engine.submit_clients(
                Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)
            )
            release = engine.run_release().release
            assert not release.accepted, f"chunk_size={chunk_size}"
            assert (
                release.audit.provers["prover-0"]
                is ProverStatus.FAILED_FINAL_CHECK
            )

    def test_tampering_prover_fails_streamed_line13(self):
        params = setup(1.0, 2**-10, group=GROUP, nb_override=NB)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("t"), bias=3)
        engine = ProtocolEngine(
            params, provers=[cheater], rng=SeededRNG("run2"), chunk_size=3
        )
        from repro.core.client import Client

        engine.submit_clients(
            Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(4)
        )
        release = engine.run_release().release
        assert not release.accepted
        assert release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_streamed_and_buffered_agree_on_verdicts(self):
        bits = [1, 0, 1, 1, 0, 1]
        verdicts = []
        for chunk in (None, 2):
            session = streamed_session(chunk, seed="agree") if chunk else Session(
                CountQuery(1.0, 2**-10), group=GROUP, nb_override=NB,
                rng=SeededRNG("agree"),
            )
            session.submit(list(bits))
            session.submit([NonBinaryClient("evil", [3], SeededRNG("e"))])
            result = session.release()
            assert result.accepted
            verdicts.append(dict(result.results[0].audit.clients))
        assert verdicts[0] == verdicts[1]


class TestPeakMemoryGuard:
    def _run(self, chunk_size, nb, seed):
        gc.collect()
        tracemalloc.start()
        session = Session(
            CountQuery(1.0, 2**-10), group=GROUP, nb_override=nb,
            chunk_size=chunk_size, rng=SeededRNG(seed),
        )
        session.submit([1, 0, 1, 1] * 4)
        result = session.release()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.accepted
        return peak

    def test_streamed_peak_fraction_of_buffered(self):
        """The regression guard: streamed verification must stay well
        under the buffered path's peak allocation.  At nb = 1024 the
        measured ratio is ~0.1; 0.5 is the do-not-regress ceiling."""
        nb = 1024
        streamed = self._run(64, nb, "mem-streamed")
        buffered = self._run(None, nb, "mem-buffered")
        assert streamed < 0.5 * buffered, (
            f"streamed peak {streamed/1e6:.2f}MB vs buffered {buffered/1e6:.2f}MB"
        )
