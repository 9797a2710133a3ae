"""Adversary strategies: forger plans and floors, informed and privileged attackers."""

import numpy as np
import pytest

from oracles import ForgerOracle, SubspaceOracle, dxd_principal_state, principal_state
from qpuflab import (
    BudgetRefusal,
    DimensionCapExceeded,
    DimensionMismatch,
    ForgerPlan,
    GameConfig,
    InvalidQuantumObject,
    PostSelectionFailure,
    PreconditionViolation,
    PrivilegedReadout,
    PrivilegeRequired,
    QeForger,
    QPufGenParams,
    SealedOracle,
    StateVector,
    SubspaceAdversary,
    SubspaceKnowledge,
    TestConfig,
    TomographyAdversary,
    apply,
    estimate_win_rate,
    fidelity_pure,
    forgery_fidelity_bound,
    haar_state,
    haar_unitary,
    make_forger_plan,
    max_dim,
    qeval,
    qgen,
    run_forgery,
    run_game,
)
from qpuflab.adversaries import _principal_states
from qpuflab.numerics import _unchecked

SEED = 5150


def basis(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return StateVector(v)


def device_oracle(instance):
    return SealedOracle(lambda psi: qeval(instance, psi))


class TestForgerPlan:
    def test_balanced_branch(self):
        plan = make_forger_plan(0.5, 4)
        root_half = 1.0 / np.sqrt(2.0)
        assert plan.alpha == pytest.approx(root_half, abs=1e-12)
        assert plan.beta == pytest.approx(root_half, abs=1e-12)
        assert fidelity_pure(plan.phi3, plan.phi2) == pytest.approx(0.5, abs=1e-12)

    def test_weighted_branch_hits_the_mu_boundary(self):
        # F(challenge, second query) must equal 1 - mu exactly
        plan = make_forger_plan(0.75, 4)
        assert fidelity_pure(plan.phi3, plan.phi2) == pytest.approx(0.25, abs=1e-12)
        assert plan.alpha == pytest.approx(0.5, abs=1e-12)
        assert plan.beta == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_small_mu_uses_balanced_branch(self):
        plan = make_forger_plan(0.2, 4)
        assert plan.alpha == pytest.approx(plan.beta, abs=1e-12)

    def test_mu_cap_respects_margin(self):
        # the default margin is 1 / (2 D), so at D = 4 the cap is 0.875
        assert make_forger_plan(0.875, 4).mu == 0.875
        with pytest.raises(PreconditionViolation):
            make_forger_plan(0.95, 4)
        plan = make_forger_plan(0.95, 4, margin=0.01)
        assert plan.mu == 0.95

    def test_negative_mu_rejected(self):
        with pytest.raises(PreconditionViolation):
            make_forger_plan(-0.05, 4)

    @pytest.mark.parametrize("margin", [None, 0.1])
    @pytest.mark.parametrize("dim", [-1, 0, 1])
    def test_dimension_below_two_rejected(self, dim, margin):
        # the challenge |1> needs a second basis state
        with pytest.raises(InvalidQuantumObject, match="dimension"):
            make_forger_plan(0.5, dim, margin=margin)

    def test_dimension_above_the_cap_rejected(self):
        with pytest.raises(DimensionCapExceeded):
            make_forger_plan(0.5, max_dim() + 1)

    @pytest.mark.parametrize("margin", [-1.0, -1e-9, 1.5, float("nan")])
    def test_margin_outside_unit_interval_rejected(self, margin):
        # a negative margin would otherwise let mu > 1 through to sqrt(1 - mu)
        with pytest.raises(PreconditionViolation, match="margin"):
            make_forger_plan(0.5, 4, margin=margin)

    def test_plan_invariants_enforced(self):
        with pytest.raises(InvalidQuantumObject):
            ForgerPlan(
                mu=0.5, phi1=basis(2, 0), phi2=basis(2, 0), phi3=basis(2, 1),
                alpha=0.9, beta=0.9,
            )
        with pytest.raises(InvalidQuantumObject):
            ForgerPlan(
                mu=0.5, phi1=basis(2, 0), phi2=basis(2, 0), phi3=basis(2, 0),
                alpha=1.0, beta=0.0,
            )


class TestFidelityBound:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.5])
    def test_balanced_branch_floor_is_one(self, mu):
        assert forgery_fidelity_bound(mu) == 1.0

    def test_frozen_weighted_values(self):
        assert forgery_fidelity_bound(0.75) == pytest.approx(0.4375)
        assert forgery_fidelity_bound(0.9) == pytest.approx(0.136)

    def test_floor_decays_monotonically_past_half(self):
        grid = np.linspace(0.5, 0.99, 50)
        vals = [forgery_fidelity_bound(m) for m in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRunForgery:
    def test_exact_forgery_at_balanced_mu(self):
        inst = qgen(QPufGenParams(qubits=2, seed=SEED))
        rep = run_forgery(inst, 0.5)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
        assert rep.p_succ_stage1 == pytest.approx(1.0, abs=1e-9)
        assert rep.theory_bound == 1.0

    def test_frozen_values_at_three_quarters(self):
        # the conditioned fidelity is device-independent: exactly 89/104
        inst = qgen(QPufGenParams(qubits=2, seed=SEED + 1))
        rep = run_forgery(inst, 0.75)
        assert rep.fidelity == pytest.approx(89.0 / 104.0, abs=1e-9)
        assert rep.p_succ_stage1 == pytest.approx(0.66015625, abs=1e-9)
        assert rep.stage2_pass_prob == pytest.approx(0.8125, abs=1e-9)
        assert rep.fidelity >= rep.theory_bound

    @pytest.mark.parametrize("mu", [0.55, 0.6, 0.7, 0.8, 0.85])
    def test_floor_holds_across_mu(self, mu):
        inst = qgen(QPufGenParams(qubits=3, seed=SEED + 2))
        rep = run_forgery(inst, mu)
        assert rep.fidelity >= forgery_fidelity_bound(mu) - 1e-9

    def test_device_independence(self):
        reports = [
            run_forgery(qgen(QPufGenParams(qubits=2, seed=s)), 0.8)
            for s in (3, 4, 5)
        ]
        fids = {round(r.fidelity, 12) for r in reports}
        assert len(fids) == 1


class TestQeForger:
    def _config(self, mu, delta, qubits=2, seed=SEED):
        return GameConfig(
            mode="qex",
            gen=QPufGenParams(qubits=qubits, seed=0),
            test=TestConfig(kind="ideal", delta=delta),
            learning_budget=2,
            seed=seed,
            mu=mu,
        )

    def test_mu_range_checked_up_front(self):
        with pytest.raises(InvalidQuantumObject):
            QeForger(1.5)

    def test_respond_before_learn(self):
        forger = QeForger(0.5)
        with pytest.raises(InvalidQuantumObject):
            forger.respond(basis(4, 1), np.random.default_rng(0))
        with pytest.raises(InvalidQuantumObject):
            forger.choose_challenge(np.random.default_rng(0))

    def test_wrong_size_challenge_raises_before_the_draw(self):
        inst = qgen(QPufGenParams(qubits=2, seed=52))
        rng = np.random.default_rng(SEED)
        forger = QeForger(0.75)
        forger.learn(device_oracle(inst), inst.dim, 2, rng)
        before = rng.bit_generator.state
        for challenge in (basis(2, 1), basis(8, 1)):
            with pytest.raises(DimensionMismatch, match="input dim"):
                forger.respond(challenge, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_balanced_guess_is_the_true_response(self, n):
        # the circuit's output is pure at mu = 1/2, so its principal
        # eigenvector is the device's response to the challenge
        inst = qgen(QPufGenParams(qubits=n, seed=50 + n))
        rng = np.random.default_rng(SEED + n)
        forger = QeForger(0.5)
        forger.learn(device_oracle(inst), inst.dim, 2, rng)
        challenge = forger.choose_challenge(rng)
        guess = forger.respond(challenge, rng)
        assert fidelity_pure(guess, qeval(inst, challenge)) >= 1.0 - 1e-9

    def test_wins_every_game_at_balanced_mu(self):
        est = estimate_win_rate(
            self._config(0.5, delta=0.9), lambda: QeForger(0.5), trials=30
        )
        assert est.win_rate == 1.0

    def test_challenge_satisfies_the_mu_rule(self):
        # F(phi3, phi2) = 1 - mu sits exactly on the allowed boundary
        transcript = run_game(self._config(0.75, delta=0.4), QeForger(0.75))
        assert transcript.d_spanned == 2
        assert fidelity_pure(transcript.challenge, transcript.queries[1]) == (
            pytest.approx(0.25, abs=1e-12)
        )

    def test_weighted_branch_wins_most_games(self):
        # stage 2 is sampled: passes with prob 0.8125, and the success
        # branch clears delta = 0.4 (fidelity 89/104)
        est = estimate_win_rate(
            self._config(0.75, delta=0.4), lambda: QeForger(0.75), trials=60
        )
        assert 0.6 <= est.win_rate <= 1.0

    @pytest.mark.parametrize("mu", [0.5, 0.75])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_respond_answers_the_challenge_it_is_given(self, n, mu):
        # stages 1 and 2 run on the challenge respond is given, not on the
        # plan's phi3: the guess is the oracle's one run, bit for bit, with
        # the same draw, on the plan's challenge, a Haar state and a state
        # that overlaps a query; stage 2 both passes and fails, but for the
        # one case where it cannot fail: at D = 2 and mu = 1/2 every input
        # passes with certainty (3/4 is inside the margin even at n = 1)
        inst = qgen(QPufGenParams(qubits=n, seed=60 + n))
        forger, oracle = QeForger(mu), ForgerOracle(mu)
        for adv in (forger, oracle):
            adv.learn(device_oracle(inst), inst.dim, 2, np.random.default_rng(SEED))
        plan = forger.plan
        overlapping = (plan.phi1.amplitudes + plan.phi3.amplitudes) / np.sqrt(2.0)
        challenges = (
            plan.phi3,
            haar_state(inst.dim, np.random.default_rng([SEED, n])),
            StateVector(overlapping),
        )
        bits = set()
        for c, challenge in enumerate(challenges):
            for k in range(16):
                mine, theirs = (np.random.default_rng([SEED, n, c, k]) for _ in "ab")
                got = forger.respond(challenge, mine)
                want = oracle.respond(challenge, theirs)
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
                assert mine.bit_generator.state == theirs.bit_generator.state
                bits.add(oracle.last_result.stage2_bit)
        assert bits == ({0} if inst.dim == 2 and mu <= 0.5 else {0, 1})
        if inst.dim >= 4:  # e_2 is orthogonal to both queries
            rng = np.random.default_rng(SEED)
            before = rng.bit_generator.state
            for adv in (forger, oracle):
                with pytest.raises(PostSelectionFailure):
                    adv.respond(basis(inst.dim, 2), rng)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("mu", [0.5, 0.75, 0.875])
    def test_gram_guess_is_the_dxd_principal_state(self, mu):
        # the guess from the (2, 2) Gram matrix is the oracle's, bit for bit,
        # on an identical stream, and the (D, D) output's principal
        # eigenvector, over registers of 1 to 64 dimensions and both stage-2
        # branches; a passed game's fidelity is the same on every device and
        # register (ROADMAP item 9's forger closed form)
        def recording(cls):
            class Recorder(cls):
                def respond(self, challenge, rng):
                    self.guess = super().respond(challenge, rng)
                    return self.guess

            return Recorder(mu)

        passed = []
        for n in (1, 2, 3, 4, 6):
            if mu > 1.0 - 0.5 / 2**n:
                continue  # 7/8 is past the forger's margin on one qubit
            cfg = self._config(mu, delta=0.5, qubits=n)
            bits = set()
            for k in range(20):
                forger, oracle = recording(QeForger), recording(ForgerOracle)
                t = run_game(cfg, forger, np.random.default_rng([SEED, n, k]))
                run_game(cfg, oracle, np.random.default_rng([SEED, n, k]))
                guess = forger.guess.amplitudes
                assert guess.tobytes() == oracle.guess.amplitudes.tobytes()
                run = oracle.last_result
                old = dxd_principal_state(run.output_mixed.matrix)
                assert abs(np.vdot(guess, old)) ** 2 >= 1.0 - 1e-12
                bits.add(run.stage2_bit)
                if run.stage2_bit == 0:
                    passed.append(t.fidelity_of_guess)
                if mu <= 0.5:  # stage 1 succeeds with certainty
                    assert run.p_succ_stage1 == pytest.approx(1.0, abs=1e-9)
            assert bits == ({0} if mu <= 0.5 else {0, 1})
        assert max(passed) - min(passed) <= 1e-12
        if mu <= 0.5:
            assert min(passed) >= 1.0 - 1e-12
        if mu == 0.75:
            assert passed[0] == pytest.approx(0.944526631, abs=1e-9)



class TestPrincipalStates:
    """The stacked guess rule against ``oracles.principal_state``, one state at
    a time with its phase fixed on numpy scalars, bit for bit."""

    @staticmethod
    def _assert_oracle(final):
        got = _principal_states(final)
        want = np.array([principal_state(f) for f in final])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1, 3, 100])
    def test_gram_stacks(self, t):
        rng = np.random.default_rng([SEED, t])
        for dim in (2, 4, 8, 64):
            for _ in range(10):
                re, im = rng.standard_normal((2, t, dim, 2))
                self._assert_oracle(re + 1j * im)

    @pytest.mark.parametrize("kind", ["complex", "real", "imaginary"])
    @pytest.mark.parametrize("t", [1, 3, 100])
    def test_pivots_from_1e_300_to_1e300(self, t, kind):
        # at m = 1 LAPACK returns the (1, 1) Gram matrix's eigenvector as
        # exactly 1, even where that entry overflows, so each pivot is an
        # entry as drawn; past about 1e+-154 the norm overflows or underflows
        rng = np.random.default_rng([SEED, t, len(kind)])
        for _ in range(20):
            re, im = rng.standard_normal((2, t, 8, 1))
            final = {"complex": re + 1j * im, "real": re + 0j, "imaginary": 1j * im}[kind]
            final = final * 10.0 ** rng.uniform(-300.0, 300.0, (t, 1, 1))
            with np.errstate(all="ignore"):
                self._assert_oracle(final)

class TestSubspaceKnowledge:
    def test_validates_orthonormality(self):
        half = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(InvalidQuantumObject):
            SubspaceKnowledge(dim=2, basis_in=(basis(2, 0), half), basis_out=(basis(2, 0), basis(2, 1)))

    @staticmethod
    def _tilted_pair(overlap):
        # |0> and a unit vector whose overlap with |0> is exactly `overlap`
        tilted = StateVector(np.array([overlap, np.sqrt(1.0 - overlap**2)]))
        return (basis(2, 0), tilted)

    @pytest.mark.parametrize("side", ["basis_in", "basis_out"])
    def test_orthonormality_tolerance_is_1e_9(self, side):
        exact = (basis(2, 0), basis(2, 1))
        other = "basis_out" if side == "basis_in" else "basis_in"
        kn = SubspaceKnowledge(dim=2, **{side: self._tilted_pair(5e-10), other: exact})
        assert kn.d == 2
        with pytest.raises(InvalidQuantumObject):
            SubspaceKnowledge(dim=2, **{side: self._tilted_pair(2e-9), other: exact})

    def test_validates_lengths_and_dims(self):
        with pytest.raises(DimensionMismatch):
            SubspaceKnowledge(dim=2, basis_in=(basis(2, 0),), basis_out=())
        with pytest.raises(DimensionMismatch):
            SubspaceKnowledge(dim=2, basis_in=(basis(4, 0),), basis_out=(basis(2, 0),))

    @pytest.mark.parametrize("side", ["basis_in", "basis_out"])
    def test_nan_amplitudes_fail_the_orthonormality_check(self, side):
        nan = _unchecked(StateVector, amplitudes=np.array([np.nan, 0.0]))
        other = "basis_out" if side == "basis_in" else "basis_in"
        with pytest.raises(InvalidQuantumObject):
            SubspaceKnowledge(dim=2, **{side: (nan,), other: (basis(2, 0),)})

    def test_float_dimension_rejected(self):
        # 2.0 equals every basis state's dim, so the size checks let it through
        with pytest.raises(InvalidQuantumObject, match="dimension must be an integer"):
            SubspaceKnowledge(dim=2.0, basis_in=(basis(2, 0),), basis_out=(basis(2, 1),))

    def test_empty_basis_is_zero_dimensional_knowledge(self):
        assert SubspaceKnowledge(dim=4, basis_in=(), basis_out=()).d == 0

    def test_d_counts_the_basis(self):
        kn = SubspaceKnowledge(
            dim=4,
            basis_in=(basis(4, 0), basis(4, 1)),
            basis_out=(basis(4, 2), basis(4, 3)),
        )
        assert kn.d == 2


class TestSubspaceAdversary:
    def _learned(self, dim=4, d=2, seed=SEED):
        # learn |0>..|d-1> from a sealed Haar-device oracle
        u = haar_unitary(dim, np.random.default_rng(seed))
        adv = SubspaceAdversary(d=d)
        oracle = SealedOracle(lambda psi: apply(u, psi))
        adv.learn(oracle, dim, d, np.random.default_rng(seed))
        return adv, u

    def test_exactly_one_construction_path(self):
        with pytest.raises(InvalidQuantumObject):
            SubspaceAdversary(d=-1)

    def test_in_span_challenge_is_mapped_exactly(self):
        adv, u = self._learned()
        challenge = StateVector(
            (basis(4, 0).amplitudes + 1j * basis(4, 1).amplitudes) / np.sqrt(2.0)
        )
        guess = adv.respond(challenge, np.random.default_rng(SEED))
        want = StateVector(u.matrix @ challenge.amplitudes)
        assert fidelity_pure(guess, want) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_span_weight_goes_to_the_complement(self):
        adv, _ = self._learned()
        kn = adv.knowledge
        challenge = StateVector(
            np.sqrt(0.5) * basis(4, 0).amplitudes + np.sqrt(0.5) * basis(4, 2).amplitudes
        )
        guess = adv.respond(challenge, np.random.default_rng(SEED))
        in_image = abs(np.vdot(kn.basis_out[0].amplitudes, guess.amplitudes)) ** 2
        assert in_image == pytest.approx(0.5, abs=1e-9)

    def test_fully_orthogonal_challenge_lands_in_the_complement(self):
        adv, _ = self._learned()
        guess = adv.respond(basis(4, 3), np.random.default_rng(SEED))
        for b_out in adv.knowledge.basis_out:
            overlap = abs(np.vdot(b_out.amplitudes, guess.amplitudes))
            assert overlap <= 1e-9

    def test_spanning_basis_skips_the_complement_draw(self):
        # a challenge short of unit norm by 5e-11 (inside CONSTRUCTION_TOL)
        # used to loop forever looking for a complement that is empty
        adv, u = self._learned(dim=4, d=4)
        amps = haar_unitary(4, np.random.default_rng(SEED + 1)).matrix[:, 0]
        challenge = StateVector(amps * (1.0 - 5e-11))
        rng = np.random.default_rng(SEED)
        before = rng.bit_generator.state
        guess = adv.respond(challenge, rng)
        want = u.matrix @ challenge.amplitudes
        np.testing.assert_allclose(
            guess.amplitudes, want / np.linalg.norm(want), atol=1e-12
        )
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("d", [0, 2])
    def test_challenge_of_another_dimension_rejected(self, d):
        adv, _ = self._learned(dim=4, d=d)
        rng = np.random.default_rng(SEED)
        before = rng.bit_generator.state
        with pytest.raises(DimensionMismatch):
            adv.respond(basis(8, 0), rng)
        assert rng.bit_generator.state == before

    def test_respond_before_learn(self):
        with pytest.raises(InvalidQuantumObject):
            SubspaceAdversary(d=2).respond(basis(4, 0), np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [2, 4, 8, 64])
    def test_guess_is_the_oracle_guess(self, dim):
        # the one-game guess is the chunk kernel on a chunk of one; the
        # per-game loop of the oracle must give its bytes and leave the
        # stream where it does
        u = haar_unitary(dim, np.random.default_rng(SEED + dim)).matrix
        oracle = SealedOracle(lambda psi: StateVector(u @ psi.amplitudes))
        draw = np.random.default_rng(SEED)
        for d in sorted({0, 1, dim // 2, dim - 1, dim}):
            adv, ref = SubspaceAdversary(d), SubspaceOracle(d)
            adv.learn(oracle, dim, d, draw)
            ref.knowledge = adv.knowledge
            in_span = np.zeros(dim, dtype=np.complex128)
            in_span[:d] = haar_state(dim, draw).amplitudes[:d]
            # 5e-11 short of unit norm: inside CONSTRUCTION_TOL
            short = haar_state(dim, draw).amplitudes * (1.0 - 5e-11)
            challenges = [haar_state(dim, draw) for _ in range(3)]
            challenges.append(StateVector(short))
            if d:
                challenges.append(StateVector(in_span / np.linalg.norm(in_span)))
            for challenge in challenges:
                seed = int(draw.integers(2**63))
                rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = adv.respond(challenge, rng)
                want = ref.respond(challenge, rng_ref)
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
                assert rng.bit_generator.state == rng_ref.bit_generator.state
                if d == dim:  # a spanning basis draws nothing
                    assert rng.bit_generator.state == (
                        np.random.default_rng(seed).bit_generator.state
                    )

    def test_float_subspace_dimension_rejected(self):
        # it used to pass construction and end in a bare TypeError in learn
        with pytest.raises(InvalidQuantumObject, match="subspace dimension must be"):
            SubspaceAdversary(1.5)

    def test_subspace_cannot_exceed_space(self):
        inst = qgen(QPufGenParams(qubits=1, seed=SEED))
        adv = SubspaceAdversary(d=3)
        with pytest.raises(InvalidQuantumObject):
            adv.learn(device_oracle(inst), 2, 3, np.random.default_rng(0))

    def test_full_subspace_knowledge_always_wins(self):
        cfg = GameConfig(
            mode="qsel",
            gen=QPufGenParams(qubits=2, seed=0),
            test=TestConfig(kind="ideal", delta=0.99),
            learning_budget=4,
            seed=SEED,
        )
        est = estimate_win_rate(cfg, lambda: SubspaceAdversary(d=4), trials=20)
        assert est.win_rate == 1.0


class TestTomographyAdversary:
    def test_requires_the_privilege_grant(self):
        with pytest.raises(PrivilegeRequired):
            TomographyAdversary(readout=None)
        with pytest.raises(PrivilegeRequired):
            TomographyAdversary(readout=object())

    def test_readout_returns_an_independent_copy(self):
        state = basis(4, 0)
        amps = PrivilegedReadout().amplitudes(state)
        np.testing.assert_array_equal(amps, state.amplitudes)
        amps[0] = 0.0  # the grant's copy is mutable; the state is not
        assert state.amplitudes[0] == 1.0

    def test_refuses_insufficient_budget(self):
        adv = TomographyAdversary(PrivilegedReadout())
        inst = qgen(QPufGenParams(qubits=2, seed=SEED))
        with pytest.raises(BudgetRefusal):
            adv.learn(device_oracle(inst), 4, 3, np.random.default_rng(0))

    def test_reconstruction_is_exact(self):
        inst = qgen(QPufGenParams(qubits=2, seed=SEED + 7))
        adv = TomographyAdversary(PrivilegedReadout())
        adv.learn(device_oracle(inst), 4, 4, np.random.default_rng(0))
        np.testing.assert_allclose(
            adv.reconstructed.matrix, inst.unitary.matrix, atol=1e-12
        )
        challenge = basis(4, 2)
        guess = adv.respond(challenge, np.random.default_rng(0))
        assert fidelity_pure(guess, apply(inst.unitary, challenge)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_respond_before_learn(self):
        adv = TomographyAdversary(PrivilegedReadout())
        with pytest.raises(InvalidQuantumObject):
            adv.respond(basis(4, 0), np.random.default_rng(0))

    def test_wins_selective_games_at_any_threshold(self):
        cfg = GameConfig(
            mode="qsel",
            gen=QPufGenParams(qubits=2, seed=0),
            test=TestConfig(kind="ideal", delta=0.99),
            learning_budget=4,
            seed=SEED,
        )
        est = estimate_win_rate(
            cfg, lambda: TomographyAdversary(PrivilegedReadout()), trials=20
        )
        assert est.win_rate == 1.0
