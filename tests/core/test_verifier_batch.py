"""Batched public verification: equivalence with, and fallback to, the
sequential per-proof path.

The verifier folds all Σ-OR equations into one random linear combination
by default; these tests pin down that (a) batch and sequential verifiers
accept/reject exactly the same runs, (b) a batch rejection still
pinpoints the offending proof/client/coordinate in the audit record, and
(c) one prover's cheating never taints the verdict of another.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ProtocolEngine
from repro.core.client import Client
from repro.core.messages import ClientStatus, CoinCommitmentMessage, ProverStatus
from repro.core.params import setup
from repro.core.prover import Prover, broadcast_context_digest
from repro.core.verifier import PublicVerifier
from repro.crypto.sigma.or_bit import BitProof
from repro.utils.rng import SeededRNG

NB = 16


def make_params(dimension=1, num_provers=1, group="p64-sim"):
    return setup(
        1.0, 2**-10, group=group, nb_override=NB,
        dimension=dimension, num_provers=num_provers,
    )


def coin_message(params, name="prover-0", seed="coins", context=b"ctx"):
    prover = Prover(name, params, SeededRNG(seed))
    return prover.commit_coins(context)


def tamper_coin(message: CoinCommitmentMessage, j: int, m: int, q: int):
    proof = message.proofs[j][m]
    bad = BitProof(proof.d0, proof.d1, proof.e0, proof.e1, (proof.v0 + 1) % q, proof.v1)
    proofs = [list(row) for row in message.proofs]
    proofs[j][m] = bad
    return dataclasses.replace(
        message, proofs=tuple(tuple(row) for row in proofs)
    )


class TestCoinBatching:
    def test_honest_message_accepted_both_paths(self):
        params = make_params(dimension=2)
        message = coin_message(params)
        for batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=batch)
            assert verifier.verify_coin_commitments(message, b"ctx")
            assert verifier.audit.provers == {}

    def test_tampered_message_rejected_and_pinpointed(self):
        params = make_params()
        message = tamper_coin(coin_message(params), 7, 0, params.q)
        for batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=batch)
            assert not verifier.verify_coin_commitments(message, b"ctx")
            assert verifier.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
            assert any("coin 7" in note for note in verifier.audit.notes)

    def test_malformed_message_rejected(self):
        params = make_params()
        message = coin_message(params)
        ragged = dataclasses.replace(message, proofs=message.proofs[:-1])
        verifier = PublicVerifier(params, SeededRNG("v"))
        assert not verifier.verify_coin_commitments(ragged, b"ctx")
        assert any("malformed" in note for note in verifier.audit.notes)

    def test_short_message_cannot_finish_its_stream(self):
        """nb − 1 well-formed coins verify as a chunk, but the stream
        they leave is incomplete and the prover is recorded for it."""
        params = make_params()
        message = coin_message(params)
        short = dataclasses.replace(
            message,
            commitments=message.commitments[:-1],
            proofs=message.proofs[:-1],
        )
        verifier = PublicVerifier(params, SeededRNG("v"))
        assert verifier.verify_coin_commitments(short, b"ctx")
        assert not verifier.apply_public_bits("prover-0", [[0]] * (NB - 1))
        assert verifier.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
        assert any("incomplete" in note for note in verifier.audit.notes)

    def test_cross_prover_batch_isolates_cheater(self):
        params = make_params(num_provers=3)
        honest_a = coin_message(params, "prover-0", seed="a")
        cheater = tamper_coin(coin_message(params, "prover-1", seed="b"), 3, 0, params.q)
        honest_b = coin_message(params, "prover-2", seed="c")
        verifier = PublicVerifier(params, SeededRNG("v"))
        results = verifier.verify_all_coin_commitments(
            [honest_a, cheater, honest_b], b"ctx"
        )
        assert results == {"prover-0": True, "prover-1": False, "prover-2": True}
        assert verifier.audit.provers == {"prover-1": ProverStatus.BAD_COIN_PROOF}
        assert any("coin 3" in note for note in verifier.audit.notes)


class TestPredictableGammaForgery:
    """Why auditors must not batch: with a *public* RNG seed the RLC
    weights are predictable, and two tampered proofs can cancel in the
    weighted product.  The sequential path (which ``replay_audit`` and
    third-party replicas now use) rejects the same forgery."""

    def _forge(self, params, seed):
        message = coin_message(params, seed="forge")
        stream = SeededRNG(seed)
        gamma_a = stream.randbits(128)  # proof (0,0): branch-0 weight
        stream.randbits(128)
        gamma_b = stream.randbits(128)  # proof (1,0): branch-0 weight
        q = params.q
        delta_a = 1
        delta_b = (-gamma_a * pow(gamma_b, -1, q)) % q
        proofs = [list(row) for row in message.proofs]
        for j, delta in ((0, delta_a), (1, delta_b)):
            p = proofs[j][0]
            proofs[j][0] = BitProof(p.d0, p.d1, p.e0, p.e1, (p.v0 + delta) % q, p.v1)
        return dataclasses.replace(
            message, proofs=tuple(tuple(row) for row in proofs)
        )

    def test_sequential_auditor_rejects_gamma_cancellation(self):
        params = make_params()
        seed = "public-auditor"
        forged = self._forge(params, seed)
        # The batched check with a predictable γ stream is fooled — this
        # is the attack auditors must not be exposed to...
        batched = PublicVerifier(
            params, SeededRNG(seed), batch=True, gamma_rng=SeededRNG(seed)
        )
        assert batched.verify_coin_commitments(forged, b"ctx")
        # ...and the sequential auditor path is immune.
        sequential = PublicVerifier(params, SeededRNG(seed), batch=False)
        assert not sequential.verify_coin_commitments(forged, b"ctx")
        assert any("coin 0" in note for note in sequential.audit.notes)

    def test_default_gammas_are_not_the_protocol_stream(self):
        """A seeded protocol RNG must not determine the batch weights."""
        params = make_params()
        verifier = PublicVerifier(params, SeededRNG("public-seed"))
        assert verifier.gamma_rng is not verifier.rng
        # The forgery crafted against the seeded stream fails against the
        # default (system-randomness) gammas.
        forged = self._forge(params, "public-seed")
        assert not verifier.verify_coin_commitments(forged, b"ctx")


class TestClientBatching:
    def _broadcasts(self, params, vectors):
        out = []
        for i, vector in enumerate(vectors):
            client = Client(f"client-{i}", vector, SeededRNG(f"c{i}"))
            broadcast, _ = client.submit(params)
            out.append(broadcast)
        return out

    @pytest.mark.parametrize("dimension", [1, 4])
    def test_honest_clients_all_valid(self, dimension):
        params = make_params(dimension=dimension)
        vector = [1] + [0] * (dimension - 1)
        broadcasts = self._broadcasts(params, [vector] * 4)
        for batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=batch)
            assert len(verifier.validate_clients(broadcasts)) == 4

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_forged_proof_only_taints_cheater(self, dimension):
        params = make_params(dimension=dimension)
        vector = [1] + [0] * (dimension - 1)
        broadcasts = self._broadcasts(params, [vector] * 3)
        # Graft client-2's proof onto client-1's commitments: the
        # challenge binds to the commitments, so the proof cannot verify.
        forged = dataclasses.replace(
            broadcasts[1], validity_proof=broadcasts[2].validity_proof
        )
        batch = [broadcasts[0], forged, broadcasts[2]]
        for use_batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=use_batch)
            valid = verifier.validate_clients(batch)
            assert valid == ["client-0", "client-2"]
            assert verifier.audit.clients["client-1"] is ClientStatus.INVALID_PROOF

    def test_duplicate_client_ids_keep_separate_verdicts(self):
        """Statuses are per broadcast, not per id — a forged broadcast
        must not inherit the verdict of a valid one sharing its id."""
        params = make_params()
        broadcasts = self._broadcasts(params, [[1], [1]])
        forged = dataclasses.replace(
            broadcasts[0],
            client_id=broadcasts[1].client_id,
            validity_proof=broadcasts[0].validity_proof,
        )
        for use_batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=use_batch)
            valid = verifier.validate_clients([forged, broadcasts[1]])
            # The forged broadcast (client-0's proof under client-1's id)
            # fails its id-bound transcript; only the genuine one passes.
            assert valid == ["client-1"]

    def test_complaints_still_exclude(self):
        params = make_params(num_provers=2)
        broadcasts = self._broadcasts(params, [[1], [0]])
        verifier = PublicVerifier(params, SeededRNG("v"))
        valid = verifier.validate_clients(
            broadcasts, complaints={"prover-0": ["client-0"]}
        )
        assert valid == ["client-1"]
        assert verifier.audit.clients["client-0"] is ClientStatus.BAD_OPENING


class TestHoldThenVerify:
    """The engine holds a chunk, draws its Morra bits and checks its
    proofs afterwards; a direct caller may still verify → apply."""

    def chunks(self, params, sizes, seed="hold"):
        prover = Prover("prover-0", params, SeededRNG(seed))
        prover.begin_coin_stream(b"ctx")
        out = []
        for size in sizes:
            out.append(prover.commit_coin_chunk(size))
            prover.absorb_public_bits([[0]] * size)
        return out

    def test_hold_bits_verify_equals_verify_bits(self):
        """Both orders accept the same stream and fold the same Line 12
        products — the hold is all the Morra round and the fold need."""
        params = make_params()
        messages = self.chunks(params, [4, 4, 4, 4])
        products = []
        for held_first in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"))
            verifier.begin_coin_stream("prover-0", b"ctx")
            for index, message in enumerate(messages):
                bits = [[(index + j) % 2] for j in range(4)]
                if held_first:
                    assert verifier.hold_coin_chunk(message)
                    verifier.apply_public_bits_chunk("prover-0", bits)
                    assert verifier.verify_coin_chunk(message)
                else:
                    assert verifier.verify_coin_chunk(message)
                    verifier.apply_public_bits_chunk("prover-0", bits)
            assert verifier.finish_coin_stream("prover-0")
            products.append(verifier._adjusted_products["prover-0"][0].element)
        assert products[0] == products[1]

    def test_verify_without_a_hold_holds_verifies_and_leaves_pending(self):
        params = make_params()
        (message,) = self.chunks(params, [NB])
        verifier = PublicVerifier(params, SeededRNG("v"))
        verifier.begin_coin_stream("prover-0", b"ctx")
        assert verifier.verify_coin_chunk(message)
        stream = verifier._coin_streams["prover-0"]
        assert stream.pending == message.commitments
        assert stream.unverified is None and stream.received == NB
        verifier.apply_public_bits_chunk("prover-0", [[1]] * NB)
        assert verifier.finish_coin_stream("prover-0")

    def test_second_hold_before_the_first_chunks_bits_is_malformed(self):
        params = make_params()
        first, second = self.chunks(params, [4, 4])
        verifier = PublicVerifier(params, SeededRNG("v"))
        verifier.begin_coin_stream("prover-0", b"ctx")
        assert verifier.hold_coin_chunk(first)
        assert not verifier.hold_coin_chunk(second)
        assert verifier.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
        assert verifier.audit.notes == ["prover-0: malformed coin chunk"]

    def test_next_chunk_is_refused_while_one_is_unverified(self):
        """Bits alone do not retire a held chunk: its proofs run on the
        one evolving transcript, so they are checked before the next hold
        — by ``verify_coin_chunk`` of another message as well."""
        params = make_params()
        first, second = self.chunks(params, [4, 4])
        for take in ("hold_coin_chunk", "verify_coin_chunk"):
            verifier = PublicVerifier(params, SeededRNG("v"))
            verifier.begin_coin_stream("prover-0", b"ctx")
            assert verifier.hold_coin_chunk(first)
            verifier.apply_public_bits_chunk("prover-0", [[0]] * 4)
            assert not getattr(verifier, take)(second)
            assert verifier.audit.notes == ["prover-0: malformed coin chunk"]

    def test_finish_rejects_a_held_but_unverified_chunk(self):
        params = make_params()
        (message,) = self.chunks(params, [NB])
        verifier = PublicVerifier(params, SeededRNG("v"))
        verifier.begin_coin_stream("prover-0", b"ctx")
        assert verifier.hold_coin_chunk(message)
        verifier.apply_public_bits_chunk("prover-0", [[0]] * NB)
        assert not verifier.finish_coin_stream("prover-0")
        assert verifier.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
        assert any("incomplete coin stream (0/16" in note for note in verifier.audit.notes)

    def test_tampered_chunk_is_named_after_its_bits(self):
        """A cheater is pinpointed by the deferred check exactly as by an
        eager one: same status, same global coin index."""
        params = make_params()
        first, second = self.chunks(params, [8, 8])
        second = tamper_coin(second, 3, 0, params.q)
        for batch in (True, False):
            verifier = PublicVerifier(params, SeededRNG("v"), batch=batch)
            verifier.begin_coin_stream("prover-0", b"ctx")
            for message in (first, second):
                assert verifier.hold_coin_chunk(message)
                verifier.apply_public_bits_chunk("prover-0", [[1]] * 8)
                ok = verifier.verify_coin_chunk(message)
            assert not ok
            assert verifier.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF
            assert any("coin 11, coordinate 0" in note for note in verifier.audit.notes)
            assert not verifier.finish_coin_stream("prover-0")


class TestLine12Fold:
    def test_folded_update_matches_per_coin(self):
        """The one-pass Line 12 fold equals the coin-by-coin computation."""
        params = make_params(dimension=2)
        message = coin_message(params, seed="fold")
        rng = SeededRNG("bits")
        bits = [[rng.coin() for _ in range(2)] for _ in range(params.nb)]
        verifier = PublicVerifier(params, SeededRNG("v"))
        assert verifier.verify_coin_commitments(message, b"ctx")
        verifier.apply_public_bits("prover-0", bits)
        pedersen = params.pedersen
        for m in range(2):
            expected = pedersen.commitment_to_constant(0)
            for j in range(params.nb):
                c = message.commitments[j][m]
                adjusted = pedersen.one_minus(c) if bits[j][m] == 1 else c
                expected = expected * adjusted
            assert verifier._adjusted_products["prover-0"][m].element == expected.element

    def test_all_zero_and_all_one_bits(self):
        params = make_params()
        message = coin_message(params, seed="edge")
        for fill in (0, 1):
            verifier = PublicVerifier(params, SeededRNG("v"))
            assert verifier.verify_coin_commitments(message, b"ctx")
            bits = [[fill] for _ in range(params.nb)]
            verifier.apply_public_bits("prover-0", bits)
            pedersen = params.pedersen
            expected = pedersen.commitment_to_constant(0)
            for j in range(params.nb):
                c = message.commitments[j][0]
                expected = expected * (pedersen.one_minus(c) if fill else c)
            assert verifier._adjusted_products["prover-0"][0].element == expected.element


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_batched_and_sequential_protocols_agree(self, dimension):
        # Batch weights come from gamma_rng, not the verifier's protocol
        # stream, so the two modes co-sample identical Morra bits and the
        # raw releases match bit for bit — not just the verdicts.
        params = make_params(dimension=dimension, num_provers=2)
        releases = []
        for batch in (True, False):
            engine = ProtocolEngine(
                params,
                verifier=PublicVerifier(params, SeededRNG("vfr"), batch=batch),
                rng=SeededRNG("run"),
            )
            engine.submit_clients(
                Client(f"client-{i}", [1] + [0] * (dimension - 1), SeededRNG(f"cl{i}"))
                for i in range(4)
            )
            release = engine.run_release().release
            assert release.accepted
            assert sorted(release.audit.valid_clients()) == [
                f"client-{i}" for i in range(4)
            ]
            assert release.audit.all_provers_honest()
            releases.append(release)
        assert releases[0].raw == releases[1].raw

    def test_failed_final_check_names_coordinate(self):
        params = make_params(dimension=2)
        prover = Prover("prover-0", params, SeededRNG("p"))
        context = b"ctx"
        message = prover.commit_coins(context)
        verifier = PublicVerifier(params, SeededRNG("v"))
        assert verifier.verify_coin_commitments(message, context)
        bits = [[0, 0] for _ in range(params.nb)]
        verifier.apply_public_bits("prover-0", bits)
        output = prover.compute_output([], bits)
        tampered = dataclasses.replace(
            output, y=((output.y[0]) % params.q, (output.y[1] + 1) % params.q)
        )
        assert not verifier.check_prover_output(tampered, [[], []])
        assert verifier.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK
        assert any("coordinate 1" in note for note in verifier.audit.notes)
