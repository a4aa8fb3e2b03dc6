"""Byte-level public auditability: publish a run, replay the audit."""

import pytest

from repro.api import CountQuery, ProtocolEngine, Session
from repro.core.bulletin import BoardEntry, replay_audit
from repro.core.client import Client, InconsistentShareClient, NonBinaryClient
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver
from repro.errors import EncodingError
from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def run_and_publish(*, k=1, seed="bb"):
    session = Session(
        CountQuery(1.0, 2**-10),
        num_provers=k, group=GROUP, nb_override=16, rng=SeededRNG(seed),
    )
    session.submit([1, 0, 1])
    result = session.release()[0].engine_result
    return session.params, result, result.to_bulletin(session.params)


def rewrite(board, topic, payload):
    """Replace the payload of the first entry under ``topic``."""
    entry = board.topic(topic)[0]
    board.entries[board.entries.index(entry)] = BoardEntry(entry.topic, entry.party, payload)


def run_clients(params, clients, *, provers=None, seed):
    engine = ProtocolEngine(params, provers=provers, rng=SeededRNG(seed))
    engine.submit_clients(clients)
    return engine.run_release()


class TestHonestReplay:
    def test_replay_matches_original_audit(self):
        params, result, board = run_and_publish()
        replayed = replay_audit(params, board)
        assert replayed.clients == result.release.audit.clients
        assert replayed.provers == result.release.audit.provers
        assert replayed.all_provers_honest()

    def test_replay_mpc(self):
        params, result, board = run_and_publish(k=2, seed="bb2")
        replayed = replay_audit(params, board)
        assert replayed.provers == result.release.audit.provers

    def test_replay_histogram_dimension(self):
        params = setup(1.0, 2**-10, num_provers=2, dimension=3, group=GROUP, nb_override=8)
        clients = [
            Client(f"c{i}", [1 if m == i % 3 else 0 for m in range(3)], SeededRNG(f"c{i}"))
            for i in range(5)
        ]
        result = run_clients(params, clients, seed="bbh")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.all_provers_honest()

    def test_board_sizes_accounted(self):
        params, result, board = run_and_publish(seed="bb3")
        assert board.total_bytes() > 0
        assert len(board.topic("client-broadcast/")) == 3
        assert len(board.topic("coin-commitments/")) == 1
        assert len(board.topic("prover-output/")) == 1
        assert board.topic("client-complaints/") == []  # nobody complained


class TestDishonestRunsReplay:
    def test_cheating_prover_detected_from_bytes(self):
        params = setup(1.0, 2**-10, num_provers=1, group=GROUP, nb_override=16)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("c"), bias=4)
        clients = [Client(f"c{i}", [bit], SeededRNG(f"c{i}")) for i, bit in enumerate([1, 0])]
        result = run_clients(params, clients, provers=[cheater], seed="bb4")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_dishonest_client_rejected_from_bytes(self):
        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=8)
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)]
        clients.append(NonBinaryClient("evil", [4], SeededRNG("e")))
        result = run_clients(params, clients, seed="bb5")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.clients["evil"] is ClientStatus.INVALID_PROOF
        assert replayed.clients["c0"] is ClientStatus.VALID


    def test_bad_opening_client_excluded_from_bytes(self):
        """The provers' complaints are public messages: replayed from the
        board they exclude the client, and no honest prover is blamed for
        the commitment products the excluded client no longer enters."""
        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=8)
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)]
        clients.insert(
            2, InconsistentShareClient("liar", [1], victim_prover=1, rng=SeededRNG("l"))
        )
        result = run_clients(params, clients, seed="bb8")
        audit = result.release.audit
        assert audit.clients["liar"] is ClientStatus.BAD_OPENING
        assert audit.all_provers_honest()
        board = result.to_bulletin(params)
        replayed = replay_audit(params, board)
        assert replayed.clients == audit.clients
        assert replayed.provers == audit.provers
        assert [e.party for e in board.topic("client-complaints/")] == ["prover-1"]


class TestTamperedBoard:
    def test_tampered_output_detected(self):
        """An adversary rewriting the board's output entry cannot produce
        an accepting audit: the commitments pin the true value."""
        params, result, board = run_and_publish(seed="bb6")
        payload = bytearray(board.topic("prover-output/")[0].payload)
        payload[-1] ^= 0x01  # flip a bit of z
        rewrite(board, "prover-output/", bytes(payload))
        replayed = replay_audit(params, board)
        assert replayed.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_dropped_client_entry_detected(self):
        """Deleting an honest client's broadcast desyncs the product check
        — a censoring bulletin operator is caught too."""
        params, result, board = run_and_publish(seed="bb7")
        victim = board.topic("client-broadcast/client-0")[0]
        board.entries.remove(victim)
        replayed = replay_audit(params, board)
        assert not replayed.all_provers_honest()


class TestHostileBoard:
    """A third-party auditor reads bytes from outside the program: a
    broken board is an ``EncodingError`` naming the topic (or a verdict),
    never a bare ``KeyError``/``IndexError``/``ParameterError``."""

    def test_missing_morra_bits_names_the_topic(self):
        params, _, board = run_and_publish(k=2, seed="hb1")
        board.entries.remove(board.topic("morra-bits/prover-1")[0])
        with pytest.raises(EncodingError, match="morra-bits/prover-1"):
            replay_audit(params, board)

    def test_truncated_morra_bits_names_the_topic(self):
        params, _, board = run_and_publish(seed="hb2")
        payload = board.topic("morra-bits/")[0].payload
        for cut in (payload[:-1], payload[:-5], b""):  # mid-row, one row short, none
            rewrite(board, "morra-bits/prover-0", cut)
            with pytest.raises(EncodingError, match="morra-bits/prover-0"):
                replay_audit(params, board)

    def test_empty_coin_commitments_names_the_topic(self):
        params, _, board = run_and_publish(seed="hb3")
        rewrite(board, "coin-commitments/prover-0", b"")
        with pytest.raises(EncodingError, match="coin-commitments/prover-0"):
            replay_audit(params, board)

    def test_duplicated_coin_commitments_names_the_topic(self):
        params, _, board = run_and_publish(k=2, seed="hb4")
        board.entries.append(board.topic("coin-commitments/prover-1")[0])
        with pytest.raises(EncodingError, match="coin-commitments/prover-1"):
            replay_audit(params, board)

    def test_complaint_from_a_non_prover_names_the_topic(self):
        params, _, board = run_and_publish(seed="hb6")
        board.publish(
            "client-complaints/client-0", "client-0", encode_length_prefixed(b"client-1")
        )
        with pytest.raises(EncodingError, match="client-complaints/client-0"):
            replay_audit(params, board)

    def test_complaint_naming_an_unpublished_client_names_the_topic(self):
        params, _, board = run_and_publish(seed="hb7")
        board.publish(
            "client-complaints/prover-0", "prover-0", encode_length_prefixed(b"nobody")
        )
        with pytest.raises(EncodingError, match="client-complaints/prover-0.*nobody"):
            replay_audit(params, board)

    def test_short_coin_message_is_the_provers_verdict(self):
        """Dropping a coin row is not a decoding problem: the message is
        well-formed, its proofs verify, and the stream it leaves is
        incomplete — BAD_COIN_PROOF with a note, as in a live run."""
        params, _, board = run_and_publish(seed="hb5")
        parts = decode_length_prefixed(board.topic("coin-commitments/")[0].payload)
        rewrite(board, "coin-commitments/prover-0", encode_length_prefixed(*parts[:-1]))
        replayed = replay_audit(params, board)
        assert replayed.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
        assert any("incomplete coin stream" in note for note in replayed.notes)
