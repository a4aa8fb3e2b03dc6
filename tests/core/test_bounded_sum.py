"""The bounded-sum extension: range proofs + verifiable scaled noise."""

import dataclasses

import pytest

from repro.api import BoundedSumQuery, ProtocolEngine, Session
from repro.core.messages import ClientStatus
from repro.core.prover import OutputTamperingProver
from repro.core.verifier import PublicVerifier
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def build(bits=4, nb=16):
    """The query and its curator-model (K = 1) public parameters."""
    query = BoundedSumQuery(bits, epsilon=1.0, delta=2**-10)
    return query, query.build_params(num_provers=1, group=GROUP, nb_override=nb)


def submit(query, params, client_id, value, rng):
    """One client's (public broadcast, private share messages)."""
    return query.make_client(client_id, value, rng).submit(params)


def validate(query, params, broadcast) -> bool:
    """Anyone can check a submission's range proof."""
    verifier = PublicVerifier(params, SeededRNG("v"), plan=query.build_plan())
    return verifier.validate_client(broadcast) is ClientStatus.VALID


def rejected_clients(release) -> tuple[str, ...]:
    return tuple(
        client_id
        for client_id, status in release.audit.clients.items()
        if status is not ClientStatus.VALID
    )


def with_row(broadcast, commitments, proofs):
    """``broadcast`` with its (single) commitment row and bit proofs replaced."""
    return dataclasses.replace(
        broadcast,
        share_commitments=(tuple(commitments),),
        validity_proof=dataclasses.replace(
            broadcast.validity_proof, bit_proofs=tuple(proofs)
        ),
    )


class TestSubmissions:
    def test_submit_and_validate(self):
        query, params = build()
        broadcast, _ = submit(query, params, "c0", 11, SeededRNG("s"))
        assert len(broadcast.share_commitments[0]) == 4
        assert validate(query, params, broadcast)

    def test_derived_commitment_opens_to_value(self):
        query, params = build()
        broadcast, privates = submit(query, params, "c0", 13, SeededRNG("d"))
        openings = privates[0].openings
        # Any observer derives the value commitment as Π_j c_j^{2^j}.
        derived = params.pedersen.commitment_to_constant(0)
        for j, c in enumerate(broadcast.derived_commitments()):
            derived = derived * (c ** (1 << j))
        value = sum((1 << j) * o.value for j, o in enumerate(openings))
        randomness = sum((1 << j) * o.randomness for j, o in enumerate(openings))
        q = params.q
        assert params.pedersen.commit(value % q, randomness % q).element == derived.element
        assert value == 13

    def test_out_of_range_rejected_at_submit(self):
        query, params = build(bits=3)
        with pytest.raises(ParameterError):
            submit(query, params, "c0", 8, SeededRNG("x"))
        with pytest.raises(ParameterError):
            submit(query, params, "c0", -1, SeededRNG("x"))

    def test_foreign_proof_fails_validation(self):
        query, params = build()
        sub_a, _ = submit(query, params, "alice", 5, SeededRNG("a"))
        sub_b, _ = submit(query, params, "bob", 5, SeededRNG("b"))
        franken = with_row(
            sub_a, sub_a.share_commitments[0], sub_b.validity_proof.bit_proofs
        )
        assert not validate(query, params, franken)

    def test_wrong_width_fails_validation(self):
        query, params = build(bits=4)
        sub, _ = submit(query, params, "c", 3, SeededRNG("w"))
        short = with_row(
            sub, sub.share_commitments[0][:3], sub.validity_proof.bit_proofs[:3]
        )
        assert not validate(query, params, short)


def run_session(values, seed):
    session = Session(
        BoundedSumQuery(4, epsilon=1.0, delta=2**-10),
        group=GROUP, nb_override=8, rng=SeededRNG(seed),
    )
    session.submit(values)
    return session.query, session.params, session.release().release


class TestProtocolRun:
    def test_honest_run_accepts(self):
        values = [3, 7, 12, 0, 15]
        query, params, release = run_session(values, "cur")
        assert release.accepted
        assert rejected_clients(release) == ()
        true = sum(values)
        max_dev = query.sensitivity * params.nb / 2
        assert abs(release.estimate[0] - true) <= max_dev + 1

    def test_noise_in_scaled_support(self):
        query, params, release = run_session([5], "cur2")
        noise = release.raw[0] - 5
        assert 0 <= noise <= query.sensitivity * params.nb
        assert noise % query.sensitivity == 0  # noise is Δ·Binomial

    def test_tampering_curator_caught(self):
        query, params = build(nb=8)
        plan = query.build_plan()
        rng = SeededRNG("cur3")
        curator = OutputTamperingProver(
            "prover-0", params, rng.fork("prover-0"), bias=5, plan=plan
        )
        engine = ProtocolEngine(params, plan=plan, provers=[curator], rng=rng)
        engine.submit_clients([query.make_client("c0", 9, SeededRNG("c0"))])
        assert not engine.run_release().release.accepted

    def test_invalid_submission_excluded(self):
        query, params = build(nb=8)
        good = submit(query, params, "good", 6, SeededRNG("g"))
        bad_sub, bad_open = submit(query, params, "bad", 6, SeededRNG("b"))
        franken = (
            with_row(
                bad_sub,
                bad_sub.share_commitments[0][::-1],
                bad_sub.validity_proof.bit_proofs,
            ),
            bad_open,
        )
        engine = ProtocolEngine(params, plan=query.build_plan(), rng=SeededRNG("cur4"))
        engine.submit_prepared([good, franken])
        release = engine.run_release().release
        assert release.accepted
        assert rejected_clients(release) == ("bad",)
        # Only 'good' counted: raw <= 6 + Δ·nb.
        assert release.raw[0] <= 6 + query.sensitivity * params.nb

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BoundedSumQuery(0, 1.0, 2**-10)
        with pytest.raises(ParameterError):
            BoundedSumQuery(33, 1.0, 2**-10)

    def test_privacy_calibration_scales_with_sensitivity(self):
        """Wider values ⇒ smaller per-coin ε ⇒ more coins."""
        narrow = BoundedSumQuery(2, 1.0, 2**-10).build_params(num_provers=1, group=GROUP)
        wide = BoundedSumQuery(8, 1.0, 2**-10).build_params(num_provers=1, group=GROUP)
        assert wide.nb > narrow.nb
