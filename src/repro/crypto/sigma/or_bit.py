"""The Σ-OR proof that a Pedersen commitment opens to a bit.

This is the oracle ``O_OR`` of Section 2.2 / Appendix C (Figures 5 and 6):
given c = Com(x, r), prove in zero knowledge that

    c ∈ L_Bit = { c : x ∈ {0, 1} ∧ c = Com(x, r) }

without revealing which of 0/1.  Construction: Cramer–Damgård–Schoenmakers
(CDS94) disjunction of two Schnorr proofs with base ``h``:

* branch 0 asserts ∃r.  c      = h^r   (i.e. x = 0),
* branch 1 asserts ∃r.  c·g⁻¹  = h^r   (i.e. x = 1).

The prover runs the real Schnorr prover on the true branch and the HVZK
simulator on the false branch, splitting the challenge e = e₀ + e₁ so that
one sub-challenge is free (simulated) and the other is forced.  The
verifier's equations — identical to the last line of Figures 5/6 —

    h^{v₀} == d₀ · c^{e₀}          and      h^{v₁} == d₁ · (c/g)^{e₁}
    (equivalently  d₁ · c^{e₁} == g^{e₁} · h^{v₁})

hold for exactly one honest branch and one simulated branch, and the two
transcripts are identically distributed, so the verifier cannot tell which
branch was real.

Note on the paper's figures: Figure 5 ("without revealing that x = 1")
and Figure 6 ("without revealing that x = 0") transpose which branch is
simulated relative to the witness; the construction implemented here is
the standard CDS94 disjunction whose verification equations match the
figures' final line.  Completeness for both witness values is covered by
``tests/crypto/test_or_bit.py``.

This proof dominates the cost of ΠBin (Table 1: the Σ-proof and
Σ-verification columns), so the module also provides the vectorized
:func:`prove_bits` / :func:`verify_bits` used for the nb private coins.

Proving uses the witness.  A witness-less simulator computes the false
branch's announcement from the statement, ``d_sim = h^v · T_sim^(−e)`` —
a variable-base power.  The prover holds ``(x, r)`` and therefore knows
the statement's representation ``T_sim = g^(x−sim) · h^r``, so

    d_sim = h^v · (g^(x−sim) · h^r)^(−e) = Com((sim−x)·e, v − r·e)

is the same group element (same canonical bytes, so the same transcript,
challenge and proof) from the fixed bases g and h alone; ``(e, v)`` are
still uniform and independent of the witness, so the distribution of a
proof is untouched.  :func:`prove_bits` computes every announcement this
way, and per proof costs 4 comb-walk equivalents — the witness check
``Com(x, r)`` (x is a bit: one walk), ``d_sim`` (a fused g/h walk: two)
and ``d_real = Com(0, b)`` (one) — and 0 variable-base powers, all of it
in two :meth:`PedersenParams.commit_many` passes per call.  The ΠBin
prover computed ``Com(x, r)`` itself one step earlier, so its proofs skip
the recomputation (``recommit=False``): each coin is committed once, and
its proof costs the three announcement walks.  The witness-less formula
remains in :func:`simulate_bit_transcript` (which has no witness) and as
the oracle in ``tests/crypto/test_or_bit.py``.

Verifying is exact: :func:`verify_bit` checks each proof's two equations
as they stand, with no random linear combination, because its callers
either have a public RNG (the bulletin auditor) or need to name the one
proof that fails (the pinpoint replay after a batch rejects).  The two
variable-base powers are of *one* base: the branch-1 statement is c/g, so

    h^{v₁} == d₁ · (c/g)^{e₁}    ⇔    g^{e₁} · h^{v₁} == d₁ · c^{e₁}

moves g to the left, where ``g^{e₁}·h^{v₁}`` is one fused comb walk over
the tables every commitment already uses, and leaves ``c^{e₀}`` and
``c^{e₁}`` on the right.  :func:`_failed_branch` takes both from a single
squaring chain (:func:`~repro.crypto.multiexp.shared_base_powers`).  Per
proof on pure-Python ristretto255 that is 252 doublings + ≈ 260 additions
and no generic ``**``, where two independent ladders for ``c^{e₀}`` and
``(c/g)^{e₁}`` cost 504 doublings + ≈ 243 additions, each through a point
object.  On the Schnorr integer groups a power is CPython's C ``pow``
(and on libsodium's ristretto255 a library call), which no Python-level
chain beats and which shares nothing, so there branch 1 keeps the
figures' form: dividing c by g is one modular inversion (one native
subtraction), cheaper than a second fixed-base power for ``g^{e₁}``.
The kernel's ``native_pow`` hint tells the two apart; both forms are the
same equation and give the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.fiat_shamir import Transcript
from repro.crypto.group import GroupElement
from repro.crypto.multiexp import shared_base_powers
from repro.crypto.pedersen import Commitment, Opening, PedersenParams
from repro.errors import ParameterError, ProofRejected
from repro.utils.rng import RNG, default_rng

__all__ = [
    "BitProof",
    "prove_bit",
    "verify_bit",
    "prove_bits",
    "verify_bits",
    "simulate_bit_transcript",
    "branch_statements",
]


@dataclass(frozen=True)
class BitProof:
    """A CDS94 OR proof (d₀, d₁, e₀, e₁, v₀, v₁).

    Only one sub-challenge is serialized conceptually (e₁ = e - e₀), but we
    carry both for clarity; verification recomputes and checks the split.
    """

    d0: GroupElement
    d1: GroupElement
    e0: int
    e1: int
    v0: int
    v1: int


def branch_statements(params: PedersenParams, commitment: Commitment) -> tuple[GroupElement, GroupElement]:
    """(T₀, T₁) = (c, c/g): h-discrete-log statements for the two branches."""
    return commitment.element, commitment.element / params.g


def _bind(transcript: Transcript, params: PedersenParams, commitment: Commitment) -> None:
    transcript.append_bytes("pp", params.transcript_bytes())
    transcript.append_element("bit-commitment", commitment.element)


def _challenge(transcript: Transcript, params: PedersenParams) -> int:
    return transcript.challenge_scalar("or-challenge", params.q)


def _announce(
    params: PedersenParams,
    commitments: list[Commitment],
    openings: list[Opening],
    rng: RNG,
    recommit: bool = True,
) -> list[tuple[int, int, int, int, GroupElement, GroupElement]]:
    """First move of every proof in a list: ``(bit, e_sim, v_sim, b, d0, d1)``.

    The one place an announcement is computed, for the Fiat–Shamir and the
    interactive prover alike.  Checks every witness first (``x`` a bit,
    and — unless ``recommit`` is false — ``Com(x, r) == c``) and raises
    :class:`ParameterError` for the first that fails, before any draw;
    then draws ``(e_sim, v_sim, b)`` per proof in proof order and sends all
    2n announcements — ``Com((sim−x)·e_sim, v_sim − r·e_sim)`` on the
    simulated branch, ``Com(0, b)`` on the real one — through one
    :meth:`PedersenParams.commit_many` pass.

    Recomputing ``Com(x, r)`` is the check for callers that bring their
    own commitments (a client's validity proof, the interactive prover,
    the benchmark stages).  A caller that computed ``c`` from these very
    openings a moment ago — the ΠBin prover committing its coins — passes
    ``recommit=False`` and saves one fixed-base pair per proof; the check
    that ``x`` is a bit runs either way.
    """
    q = params.q
    bits = [opening.value % q for opening in openings]
    expected = (
        params.commit_many(bits, [opening.randomness for opening in openings])
        if recommit
        else None
    )
    for i, (bit, commitment) in enumerate(zip(bits, commitments)):
        if bit not in (0, 1):
            raise ParameterError(f"witness value {bit} is not a bit; L_Bit requires 0 or 1")
        if expected is not None and expected[i].element != commitment.element:
            raise ParameterError("opening does not match commitment")

    field_element = rng.field_element
    draws: list[tuple[int, int, int]] = []
    values: list[int] = []
    randomness: list[int] = []
    for bit, opening in zip(bits, openings):
        e_sim, v_sim, b = field_element(q), field_element(q), field_element(q)
        draws.append((e_sim, v_sim, b))
        # sim − x is +1 for x = 0 (simulating branch 1) and −1 for x = 1.
        values += (-e_sim if bit else e_sim, 0)
        randomness += (v_sim - opening.randomness * e_sim, b)
    # Announcements alternate simulated, real: one iterator read twice
    # per proof pairs them up.
    announced = iter(params.commit_many(values, randomness))
    return [
        (bit, e_sim, v_sim, b, sim.element, real.element)
        if bit
        else (bit, e_sim, v_sim, b, real.element, sim.element)
        for bit, (e_sim, v_sim, b), sim, real in zip(bits, draws, announced, announced)
    ]


def _respond(
    q: int, opening: Opening, bit: int, e_sim: int, v_sim: int, b: int, challenge: int
) -> tuple[int, int, int, int]:
    """Third move ``(e0, e1, v0, v1)``: the real branch takes the forced
    sub-challenge ``e − e_sim`` and answers it with the witness."""
    e_real = (challenge - e_sim) % q
    v_real = (b + e_real * opening.randomness) % q
    if bit:
        return e_sim, e_real, v_sim, v_real
    return e_real, e_sim, v_real, v_sim


def prove_bit(
    params: PedersenParams,
    commitment: Commitment,
    opening: Opening,
    transcript: Transcript,
    rng: RNG | None = None,
) -> BitProof:
    """Non-interactive (Fiat–Shamir) proof that ``commitment`` is to a bit."""
    return prove_bits(params, [commitment], [opening], transcript, rng)[0]


def _failed_branch(
    params: PedersenParams, commitment: Commitment, proof: BitProof
) -> int | None:
    """The first branch whose equation fails (0 or 1), or None.

    The one place the two verification equations are evaluated — for
    :func:`verify_bit`, the interactive verifier and anything else that
    must check a Σ-OR transcript *exactly*.  No weight is drawn and no
    equation is combined with another; the challenge split is the
    caller's check.

    Where a power is a Python ladder (the pure curve kernels) branch 1 is
    checked as ``g^{e₁}·h^{v₁} == d₁·c^{e₁}`` so that both ``c`` powers
    come off one squaring chain and the extra ``g^{e₁}`` rides the comb
    walk ``h^{v₁}`` needs anyway.  Where it is native (``native_pow``:
    CPython's C ``pow`` on the Schnorr kernels, libsodium) two ladders
    share nothing, and the figures' ``h^{v₁} == d₁·(c/g)^{e₁}`` costs one
    inversion instead of a second fixed-base power.
    """
    if params.group.multiexp_kernel().native_pow:
        t0, t1 = branch_statements(params, commitment)
        c_e0, right1 = t0**proof.e0, t1**proof.e1
        left1 = params.pow_h(proof.v1)
    else:
        c_e0, right1 = shared_base_powers(commitment.element, (proof.e0, proof.e1))
        left1 = params.commit(proof.e1, proof.v1).element
    if params.pow_h(proof.v0) != proof.d0 * c_e0:
        return 0
    if left1 != proof.d1 * right1:
        return 1
    return None


def verify_bit(
    params: PedersenParams,
    commitment: Commitment,
    proof: BitProof,
    transcript: Transcript,
) -> None:
    """Verify a Fiat–Shamir bit proof; raises :class:`ProofRejected`.

    Checks (matching Figures 5/6, line 8–9):
      e₀ + e₁ == e,  h^{v₀} == d₀·c^{e₀},  h^{v₁} == d₁·(c/g)^{e₁}
    — the last, on the curve backends, as g^{e₁}·h^{v₁} == d₁·c^{e₁}
    (see the module docstring).
    """
    _bind(transcript, params, commitment)
    transcript.append_element("d0", proof.d0)
    transcript.append_element("d1", proof.d1)
    e = _challenge(transcript, params)
    if (proof.e0 + proof.e1) % params.q != e:
        raise ProofRejected("challenge split e0 + e1 != e")
    failed = _failed_branch(params, commitment, proof)
    if failed is not None:
        raise ProofRejected(f"branch-{failed} verification equation failed")


def prove_bits(
    params: PedersenParams,
    commitments: list[Commitment],
    openings: list[Opening],
    transcript: Transcript,
    rng: RNG | None = None,
    *,
    recommit: bool = True,
) -> list[BitProof]:
    """Prove every commitment in a batch is a bit (one proof each).

    The proofs share one transcript, so each challenge is bound to *all*
    previous commitments and proofs — parallel composition, as the paper
    notes both Π_morra and Π_or compose in parallel (footnote 7).

    All group work happens up front in :func:`_announce`; what remains per
    proof is hashing (bind → absorb d₀, d₁ → challenge) and two modular
    multiplications.  Proofs, transcript state and RNG position equal those
    of n sequential :func:`prove_bit` calls.  A bad witness anywhere in the
    list raises :class:`ParameterError` with nothing absorbed or drawn.

    ``Com(x, r) == c`` is checked by recomputing ``c`` — the guard for
    callers that bring their own commitments.  ``recommit=False`` is for
    a caller that has just computed ``commitments`` from ``openings``
    itself (:meth:`repro.core.prover.Prover._prove_coins`): the
    recomputation could only repeat that work.  That each ``x`` is a bit
    is checked either way.
    """
    if len(commitments) != len(openings):
        raise ParameterError("commitments and openings length mismatch")
    q = params.q
    announced = _announce(params, commitments, openings, default_rng(rng), recommit)
    append_element = transcript.append_element
    proofs: list[BitProof] = []
    for commitment, opening, (bit, e_sim, v_sim, b, d0, d1) in zip(
        commitments, openings, announced
    ):
        _bind(transcript, params, commitment)
        append_element("d0", d0)
        append_element("d1", d1)
        e = _challenge(transcript, params)
        proofs.append(BitProof(d0, d1, *_respond(q, opening, bit, e_sim, v_sim, b, e)))
    return proofs


def verify_bits(
    params: PedersenParams,
    commitments: list[Commitment],
    proofs: list[BitProof],
    transcript: Transcript,
) -> None:
    """Verify a batch produced by :func:`prove_bits` (same transcript order)."""
    if len(commitments) != len(proofs):
        raise ProofRejected("number of proofs does not match number of commitments")
    for commitment, proof in zip(commitments, proofs):
        verify_bit(params, commitment, proof, transcript)


def simulate_bit_transcript(
    params: PedersenParams,
    commitment: Commitment,
    challenge: int,
    rng: RNG | None = None,
) -> BitProof:
    """HVZK simulator: an accepting OR transcript for a *given* challenge.

    Requires no witness at all — both branches are simulated, splitting the
    challenge uniformly.  Together with :func:`prove_bit` this demonstrates
    the zero-knowledge property: for a commitment to a genuine bit the
    simulated and real transcripts are identically distributed.
    """
    rng = default_rng(rng)
    q = params.q
    e0 = rng.field_element(q)
    e1 = (challenge - e0) % q
    v0 = rng.field_element(q)
    v1 = rng.field_element(q)
    # The verifier's equations solved for the announcements: d₀ = h^{v₀}·c^{−e₀},
    # d₁ = g^{e₁}·h^{v₁}·c^{−e₁} (= h^{v₁}·(c/g)^{−e₁}).
    c_e0, c_e1 = shared_base_powers(commitment.element, (-e0, -e1))
    d0 = params.pow_h(v0) * c_e0
    d1 = params.commit(e1, v1).element * c_e1
    return BitProof(d0, d1, e0, e1, v0, v1)
