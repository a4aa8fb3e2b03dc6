"""The session phase state machine: legal transitions and loud failures."""

import pytest

from repro.api import CountQuery, Phase, Session, TRANSITIONS
from repro.api.phases import advance
from repro.errors import SessionStateError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def make_session(**kwargs):
    kwargs.setdefault("group", GROUP)
    kwargs.setdefault("nb_override", 8)
    kwargs.setdefault("rng", SeededRNG("phases"))
    return Session(CountQuery(1.0, 2**-10), **kwargs)


class TestTransitions:
    def test_advance_legal(self):
        assert advance(Phase.ENROLL, Phase.VALIDATE) is Phase.VALIDATE

    @pytest.mark.parametrize(
        "current,target",
        [
            (Phase.ENROLL, Phase.MORRA),
            (Phase.VALIDATE, Phase.ENROLL),
            (Phase.MORRA, Phase.COMMIT_COINS),
            # Bits are drawn once per committed chunk: a second Morra
            # needs a second commitment.
            (Phase.ADJUST, Phase.MORRA),
            (Phase.RELEASE, Phase.ENROLL),
            (Phase.DONE, Phase.ENROLL),
        ],
    )
    def test_advance_illegal(self, current, target):
        with pytest.raises(SessionStateError):
            advance(current, target)

    def test_morra_always_follows_commitment(self):
        """Soundness invariant: public bits are only drawn from a phase
        where the coins are already committed."""
        for phase, targets in TRANSITIONS.items():
            if Phase.MORRA in targets:
                assert phase is Phase.COMMIT_COINS

    def test_done_is_terminal(self):
        assert TRANSITIONS[Phase.DONE] == frozenset()


class TestSessionLifecycle:
    def test_starts_in_enroll(self):
        assert make_session().phase is Phase.ENROLL

    def test_release_reaches_done(self):
        session = make_session()
        session.submit([1, 0, 1])
        result = session.release()
        assert result.accepted
        assert session.phase is Phase.DONE

    def test_submit_after_release_rejected(self):
        session = make_session()
        session.submit([1])
        session.release()
        with pytest.raises(SessionStateError):
            session.submit([0])

    def test_release_is_idempotent(self):
        session = make_session()
        session.submit([1, 1])
        first = session.release()
        assert session.release() is first

    def test_engine_submit_after_close_rejected(self):
        session = make_session()
        session.submit([1])
        engine = session.engines[0]
        engine.run_release()
        with pytest.raises(SessionStateError):
            engine.submit_clients([])

    @pytest.mark.parametrize("chunk", [None, 2])
    def test_duplicate_client_id_rejected(self, chunk):
        """A client must not enroll twice — double voting is a
        ParameterError at registration in both execution modes (regression:
        an early streamed draft silently double-counted duplicates)."""
        from repro.errors import ParameterError

        session = make_session(chunk_size=chunk, rng=SeededRNG(f"dup-{chunk}"))
        from repro.core.client import Client

        session.submit([Client("same", [1], SeededRNG("a"))])
        with pytest.raises(ParameterError):
            session.submit([Client("same", [1], SeededRNG("b"))])

    def test_unchunked_phase_sequence_is_one_lap_per_prover(self):
        """chunk_size=None is one chunk of nb coins, so the coin loop runs
        exactly once per prover — the same machine as any chunked run."""
        from repro.api.engine import add_phase_observer, remove_phase_observer

        seen = [Phase.ENROLL]

        def observer(previous, new, elapsed):
            seen.append(new)

        session = make_session(num_provers=2, rng=SeededRNG("sequence"))
        session.submit([1, 0, 1])
        add_phase_observer(observer)
        try:
            assert session.release().accepted
        finally:
            remove_phase_observer(observer)
        lap = [Phase.COMMIT_COINS, Phase.MORRA, Phase.ADJUST]
        assert seen == [Phase.ENROLL, Phase.VALIDATE, *lap, *lap, Phase.RELEASE, Phase.DONE]

    def test_streaming_phases_cycle_per_chunk(self):
        session = make_session(chunk_size=2, rng=SeededRNG("cycle"))
        session.submit([1, 0, 1, 1, 0])
        assert session.phase is Phase.ENROLL
        result = session.release()
        assert result.accepted
        assert session.phase is Phase.DONE
