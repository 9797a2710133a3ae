"""The audit battery must pass on honest claims and flag the planted false one."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from qpuflab import numerics, testers, verify
from qpuflab import (
    CheckReport,
    DimensionCapExceeded,
    EpsilonDisturbedChannel,
    InvalidQuantumObject,
    PostSelectionFailure,
    PreconditionViolation,
    StateVector,
    closed_form_check,
    distance_contraction_check,
    fidelity_disturbance_check,
    haar_state,
    haar_subspace_weight_check,
    haar_unitary,
    joint_concavity_check,
    negative_control_check,
    orthogonal_challenge_check,
    pure_state_distance_bound,
    recovery_floor_check,
    run_all_checks,
    swap_statistics_check,
    trace_distance,
    DensityMatrix,
    UnitaryMatrix,
    channel_apply,
    fidelity_mixed,
    sqrt_fidelity_mixed,
    run_full,
)
from qpuflab.numerics import span_projector

SEED = 884422


class TestDistanceBound:
    """pure_state_distance_bound upper-bounds the trace distance tightly."""

    def test_identical_states(self):
        rng = np.random.default_rng(SEED)
        psi = haar_state(4, rng)
        assert pure_state_distance_bound(psi, psi) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_removed(self):
        rng = np.random.default_rng(SEED + 1)
        psi = haar_state(4, rng)
        rotated = StateVector(np.exp(0.91j) * psi.amplitudes)
        assert pure_state_distance_bound(psi, rotated) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = StateVector(np.array([1.0, 0.0]))
        b = StateVector(np.array([0.0, 1.0]))
        assert pure_state_distance_bound(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_bounds_trace_distance(self, seed):
        rng = np.random.default_rng(seed)
        a, b = haar_state(4, rng), haar_state(4, rng)
        td = trace_distance(DensityMatrix.from_state(a), DensityMatrix.from_state(b))
        assert pure_state_distance_bound(a, b) >= td - 1e-12


class TestIndividualChecks:
    def test_haar_subspace_weight(self):
        rng = np.random.default_rng(SEED + 2)
        rep = haar_subspace_weight_check(3, 8, 20000, rng)
        assert rep.passed
        assert (rep.trials, rep.violations) == (20000, 0)
        assert type(rep.worst_margin) is float and rep.worst_margin >= 0.0

    def test_recovery_floor(self):
        rep = recovery_floor_check(60, np.random.default_rng(SEED + 3))
        assert rep.passed
        assert rep.worst_margin >= 0.0

    def test_closed_form(self):
        rep = closed_form_check(40, np.random.default_rng(SEED + 4))
        assert rep.passed

    def test_orthogonal_challenge(self):
        rep = orthogonal_challenge_check(30, np.random.default_rng(SEED + 5))
        assert rep.passed

    def test_distance_contraction(self):
        rep = distance_contraction_check(0.3, 4, 40, np.random.default_rng(SEED + 6))
        assert rep.passed

    def test_fidelity_disturbance(self):
        rep = fidelity_disturbance_check(0.3, 4, 40, np.random.default_rng(SEED + 7))
        assert rep.passed

    def test_fidelity_disturbance_runs_three_fidelities_per_trial(
        self, monkeypatch
    ):
        # F_in, then F_out per channel; the square roots reuse them.  Counts
        # the pairs entering the stacked fidelity kernel, also any that
        # reach it through the public single-pair functions.
        calls = []
        real = numerics._fidelity_stack

        def counted(rhos, sigmas):
            calls.append(int(np.prod(rhos.shape[:-2])))
            return real(rhos, sigmas)

        monkeypatch.setattr(verify, "_fidelity_stack", counted)
        monkeypatch.setattr(numerics, "_fidelity_stack", counted)
        fidelity_disturbance_check(0.3, 4, 4, np.random.default_rng(SEED + 7))
        assert sum(calls) == 12

    def test_joint_concavity(self):
        rep = joint_concavity_check(4, 40, np.random.default_rng(SEED + 8))
        assert rep.passed

    def test_swap_statistics(self):
        rep = swap_statistics_check(2000, np.random.default_rng(SEED + 9))
        assert rep.passed

    def test_nan_margin_is_a_violation(self):
        # min(inf, nan) is inf and nan < 0 is False: a NaN margin used to
        # pass with worst_margin inf
        nan = float("nan")
        rep = verify._report("x", [nan])
        assert (rep.violations, rep.passed) == (1, False)
        assert math.isnan(rep.worst_margin)
        chunks = [np.array([1.0]), np.array([nan, 2.0]), np.array([-3.0])]
        rep = verify._report_chunks("x", chunks)
        assert (rep.trials, rep.violations, rep.passed) == (4, 2, False)
        assert math.isnan(rep.worst_margin)
        rep = verify._report("x", [0.5, -0.25, 0.0])
        assert (rep.violations, rep.worst_margin, rep.passed) == (1, -0.25, False)

    def test_nan_weight_margin_is_a_violation(self):
        # it used to report violations=0 beside passed=False
        class NanDraws:
            def standard_normal(self, shape):
                return np.full(shape, np.nan)

        with np.errstate(invalid="ignore"):
            rep = haar_subspace_weight_check(1, 4, 10, NanDraws())
        assert (rep.trials, rep.violations, rep.passed) == (10, 1, False)
        assert math.isnan(rep.worst_margin)

    def test_as_dict_round_trip(self):
        rep = joint_concavity_check(4, 10, np.random.default_rng(SEED + 10))
        d = rep.as_dict()
        assert set(d) == {
            "name", "trials", "violations", "worst_margin", "passed", "detail",
        }
        assert d["name"] == "sqrt-fidelity-joint-concavity"
        assert d["passed"] is True


class TestNegativeControl:
    def test_planted_false_claim_is_flagged(self):
        rep = negative_control_check(30, np.random.default_rng(SEED + 11))
        assert not rep.passed
        assert rep.violations == rep.trials  # every draw exposes the claim

    def test_report_says_it_is_intentional(self):
        rep = negative_control_check(5, np.random.default_rng(SEED + 12))
        assert "expected to fail" in rep.detail


class TestFullBattery:
    def test_all_standard_checks_pass(self):
        reports = run_all_checks(seed=5)
        assert len(reports) == 9
        assert all(isinstance(r, CheckReport) for r in reports)
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_negative_control_is_the_only_failure(self):
        reports = run_all_checks(seed=5, include_negative_control=True)
        failed = [r.name for r in reports if not r.passed]
        assert failed == ["negative-control-collision"]

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(InvalidQuantumObject, match="^seed must"):
            run_all_checks(seed=seed)

    def test_reproducible_across_runs(self):
        a = [r.as_dict() for r in run_all_checks(seed=9)]
        b = [r.as_dict() for r in run_all_checks(seed=9)]
        assert a == b


# The stacked checks against their per-trial loops in ``oracles``, which draw
# and evaluate one trial at a time on validated objects and 2-d kernels:
# every report, every single-pair metric and the generator state after each
# check must be equal to theirs.


def _one_chunk(dim):
    return max(1, verify._STACK_CHUNK // dim**2)


def _mixtures(dim, ranks, rng):
    """One density matrix per entry of ``ranks`` from the audits' raw-draw
    producer: pure at rank 1, a Dirichlet mixture of Haar states above it,
    and zero at rank 0, whose normals are zero and never normalised."""
    ranks = np.asarray(ranks)
    units = rng.standard_normal((len(ranks), dim, 2 * dim))
    units[ranks == 0] = 0.0
    weights = np.zeros((len(ranks), dim))
    for w, r in zip(weights, ranks):
        if r:
            w[:r] = rng.dirichlet(np.ones(r))
    return verify._density_stack(units, weights, ranks)


def _pairs(dim, rng):
    """Pure, mixed, identical and orthogonal input pairs."""
    a, b = haar_state(dim, rng).amplitudes, haar_state(dim, rng).amplitudes
    b_perp = b - np.vdot(a, b) * a
    pure = DensityMatrix.from_state(StateVector(a))
    yield pure, DensityMatrix.from_state(StateVector(b))
    yield pure, DensityMatrix.from_state(StateVector(b_perp / np.linalg.norm(b_perp)))
    yield pure, pure
    for rank in (2, dim):
        rho, sigma = _mixtures(dim, [rank, rank], rng)
        yield DensityMatrix(rho), DensityMatrix(sigma)
        yield DensityMatrix(rho), DensityMatrix(rho)


class TestStackedChecksBits:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("epsilon", [0, 0.1, 0.3, 0.5, 1])
    def test_disturbance_checks_match_per_trial_loops(self, epsilon, dim, seed):
        for trials in (0, 1, 2, 61):
            for check in (distance_contraction_check, fidelity_disturbance_check):
                s = SEED + 1000 * seed + trials
                _assert_matches_oracle(check, (epsilon, dim, trials), s)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_joint_concavity_matches_per_trial_loop(self, dim, seed):
        for trials in (0, 1, 2, 61):
            s = SEED + 1000 * seed + trials
            _assert_matches_oracle(joint_concavity_check, (dim, trials), s)

    def test_one_chunk_and_one_trial(self):
        # D = 8 keeps this fast: a chunk is 256 trials there, 4096 at D = 2
        dim = 8
        trials = _one_chunk(dim) + 1
        s = SEED + 7000
        for check in (distance_contraction_check, fidelity_disturbance_check):
            _assert_matches_oracle(check, (0.3, dim, trials), s)
        _assert_matches_oracle(joint_concavity_check, (dim, trials), s)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_odd_sized_chunks(self, dim, monkeypatch):
        # three trials a chunk: chunks start on odd trials too, where the
        # pure/mixed alternation must carry on from the previous chunk
        monkeypatch.setattr(verify, "_STACK_CHUNK", 3 * dim**2)
        s = SEED + 8000 + dim
        for check in (distance_contraction_check, fidelity_disturbance_check):
            _assert_matches_oracle(check, (0.5, dim, 13), s)
        _assert_matches_oracle(joint_concavity_check, (dim, 13), s)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "check", [recovery_floor_check, closed_form_check, orthogonal_challenge_check]
    )
    def test_emulation_audits_match_per_trial_loops(self, check, seed):
        for trials in (0, 1, 2, 61):
            s = SEED + 1000 * seed + trials
            _assert_matches_oracle(check, (trials,), s)

    @pytest.mark.parametrize("check", [closed_form_check, orthogonal_challenge_check])
    def test_audits_that_never_read_a_device_factor_none(self, check, monkeypatch):
        # stage 1 and stage 2 read only the input samples: the devices' normals
        # are drawn in stream order, but no QR factors them
        def refuse(ginibre):
            raise AssertionError("a device was factored")

        monkeypatch.setattr(verify, "_haar_qr", refuse)
        for trials in (1, 40):
            _assert_matches_oracle(check, (trials,), SEED + 600 + trials)

    def test_complement_redraw_stays_in_its_trial(self, monkeypatch):
        # the third trial's first complement draw lands on a sample: its
        # residual is round-off, so it is drawn again before the next trial
        redraws = []

        def landing_in_span(module):
            real, calls = module._complement_vector, []

            def complement(basis, dim, rng):
                calls.append(1)
                draw = numerics._haar_vector

                def on_a_sample(dim, rng):
                    draw(dim, rng)  # the draw the sample stands in for
                    monkeypatch.setattr(numerics, "_haar_vector", draw)
                    redraws.append(1)
                    return basis[0].copy()

                if len(calls) == 3:
                    monkeypatch.setattr(numerics, "_haar_vector", on_a_sample)
                return real(basis, dim, rng)

            return complement

        for module in (verify, oracles):
            monkeypatch.setattr(module, "_complement_vector", landing_in_span(module))
        s = SEED + 400
        _assert_matches_oracle(orthogonal_challenge_check, (5,), s)
        assert len(redraws) == 2

    def test_post_selection_failure_skips_the_trial(self, monkeypatch):
        # every third run fails post-selection: its trial adds no margin, and
        # the next trial's draws follow in order
        def failing_every_third(real):
            calls = []

            def run(*args, **kw):
                calls.append(1)
                if len(calls) % 3 == 0:
                    raise PostSelectionFailure("stage 2 cannot pass", pass_prob=0.0)
                return real(*args, **kw)

            return run

        # the audit runs the kernel on raw rows, the oracle the public run
        monkeypatch.setattr(verify, "_run", failing_every_third(verify._run))
        monkeypatch.setattr(oracles, "run_full", failing_every_third(oracles.run_full))
        rep = _assert_matches_oracle(recovery_floor_check, (10,), SEED + 500)
        assert rep.trials == 7

    @pytest.mark.parametrize("trials", [1, 2, 37, 2000, 10000])
    def test_swap_battery_matches_per_trial_loop(self, trials):
        s = SEED + trials
        _assert_matches_oracle(swap_statistics_check, (trials,), s)

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("trials", [1, 2, 37, 2000])
    def test_negative_control_matches_per_trial_loop(self, trials, chunk, monkeypatch):
        # chunks of the default 1024 trials or of 3; 1e4 trials would add 3 s
        # of per-trial oracle for no branch that 2000 does not take
        if chunk is not None:
            monkeypatch.setattr(verify, "_STACK_CHUNK", chunk * 4**2)
        s = SEED + trials
        _assert_matches_oracle(negative_control_check, (trials,), s)

    @pytest.mark.parametrize("chunk", [7, 3])
    @pytest.mark.parametrize("trials", [1, 2, 37, 2000])
    def test_swap_pieces_cut_between_and_inside_trials(
        self, trials, chunk, monkeypatch
    ):
        # at 7 uniforms a piece: 7 one-pair trials a piece, then 5-pair trials
        # one a piece, and 20-pair trials in pieces of 7, 7 and 6; at 3: three
        # one-pair trials, then pieces of 3 and 2, then six of 3 and one of 2
        monkeypatch.setattr(testers, "_DRAW_CHUNK", chunk)
        s = SEED + 100 * chunk + trials
        _assert_matches_oracle(swap_statistics_check, (trials,), s)

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("trials", [1, 2, 37])
    def test_swap_draw_at_the_pass_probability_fails(self, trials, chunk, monkeypatch):
        # uniforms in quarters hit F = 0's pass probability 1/2 exactly
        if chunk is not None:
            monkeypatch.setattr(testers, "_DRAW_CHUNK", chunk)
        s = SEED + 200 + trials
        quarters = oracles.QuarterUniforms
        _assert_matches_oracle(swap_statistics_check, (trials,), s, quarters)

    def test_negative_control_refuses_close_inputs_like_check_collision(
        self, monkeypatch
    ):
        # the third trial's "orthogonal" state is its Haar state itself
        def complement(module):
            real, calls = module._complement_vector, []

            def third_is_a_copy(basis, dim, rng):
                calls.append(1)
                v = real(basis, dim, rng)
                return basis[0].copy() if len(calls) == 3 else v

            return third_is_a_copy

        for module in (verify, oracles):
            monkeypatch.setattr(module, "_complement_vector", complement(module))
        messages = []
        for check in (negative_control_check, oracles.negative_control_check):
            with pytest.raises(PreconditionViolation) as err:
                check(5, np.random.default_rng(SEED + 300))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("inputs have fidelity 1.000000 > 1 - delta_c")

    @pytest.mark.parametrize("dim", [*range(2, 9), 64])
    def test_single_pair_functions_match_2d_kernels(self, dim):
        rng = np.random.default_rng(SEED + 9000 + dim)
        for _ in range(3):
            for rho, sigma in _pairs(dim, rng):
                assert fidelity_mixed(rho, sigma) == oracles.fidelity_2d(rho, sigma)
                assert sqrt_fidelity_mixed(rho, sigma) == oracles.sqrt_fidelity_2d(
                    rho, sigma
                )
                want = oracles.trace_distance_2d(rho, sigma)
                assert trace_distance(rho, sigma) == want
                channel = EpsilonDisturbedChannel(
                    float(rng.uniform()), haar_unitary(dim, rng)
                )
                assert np.array_equal(
                    channel_apply(channel, rho).matrix,
                    oracles.channel_apply_2d(channel, rho).matrix,
                )


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
WEIGHTED_AUDITS = [
    (distance_contraction_check, (0.3, 8, 9)),
    (fidelity_disturbance_check, (0.3, 8, 9)),
    (joint_concavity_check, (8, 9)),
]


class TestDirichletWeights:
    """The audits draw Dirichlet(1, ..., 1) weights as standard exponentials
    and normalise a chunk's rows at once; that must be numpy's own rule."""

    @pytest.mark.parametrize("bits", BIT_GENERATORS)
    @pytest.mark.parametrize("r", [2, 3, 7, 8, 9, 17])
    def test_normalised_exponentials_are_numpys_dirichlet(self, r, bits):
        # rows of rank r in a zero-padded stack, chosen by rank beside rows of
        # rank 0 and 1, which hold no weights and must stay zero
        rank = np.array([[r, 0, r, 1], [1, r, r, 0], [r, r, 0, r]])
        for seed in range(12):
            rng, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
            got = np.zeros(rank.shape + (r + 3,))
            want = np.zeros_like(got)
            for i in zip(*np.nonzero(rank > 1)):
                rng.standard_exponential(out=got[i][:r])
                want[i][:r] = twin.dirichlet(np.ones(r))
            verify._normalise_rows(got, rank > 1)
            assert got.tobytes() == want.tobytes()
            assert rng.standard_normal(3).tobytes() == twin.standard_normal(3).tobytes()
            np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)

    @pytest.mark.parametrize("check, args", WEIGHTED_AUDITS)
    def test_audits_on_mt19937_match_per_trial_loops(self, check, args):
        def mt19937(seed):
            return np.random.Generator(np.random.MT19937(seed))

        _assert_matches_oracle(check, args, SEED + 9500, mt19937)

    @pytest.mark.parametrize("check, args", WEIGHTED_AUDITS)
    def test_audits_draw_no_dirichlet(self, check, args):
        # the stand-in has no ``dirichlet``; the oracle draws by it
        rng, twin = oracles.AuditDraws(SEED + 9600), np.random.default_rng(SEED + 9600)
        got = check(*args, rng)
        assert got.as_dict() == getattr(oracles, check.__name__)(*args, twin).as_dict()
        assert rng.bit_generator.state == twin.bit_generator.state


def _assert_matches_oracle(check, args, seed, make_rng=np.random.default_rng):
    """``check(*args, rng)`` and its per-trial loop in ``oracles`` give equal
    reports and leave equal generator states; returns the report."""
    rng, twin = make_rng(seed), make_rng(seed)
    got = check(*args, rng)
    assert got.as_dict() == getattr(oracles, check.__name__)(*args, twin).as_dict()
    # assert_equal compares the arrays of an MT19937 or Philox state too
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    return got


def _old_orthogonal_challenge_check(trials, rng):
    """The check's draws as when it projected with the D x D span projector,
    with its margins in decades."""
    margins = []
    for _ in range(trials):
        cfg, _ = oracles._random_qe_config(rng, (2, 3), (2, 3))
        proj = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
        for e in span_projector(cfg.samples_in).basis:
            proj += np.outer(e, e.conj())
        while True:
            v = numerics._haar_vector(cfg.dim, rng)
            v = v - proj @ v
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                break
        try:
            res = run_full(cfg, StateVector(v / norm))
        except PostSelectionFailure as exc:
            margins.append(-12.0 - math.log10(max(exc.pass_prob**2, 1e-300)))
        else:
            margins.append(min(1e-12 - res.p_succ_stage1, -1.0))
    return oracles._loop_report("orthogonal-challenge-rejection", margins)


class TestOrthogonalChallengeBits:
    # the new input draw differs from the projected one in the last bits, and
    # the margins, in decades of a round-off pass_prob, differ with it; so
    # this compares the counts and verdict the check reports, that both
    # margins clear the limit by 12 decades, and how far it moves the stream
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_projector_loop(self, seed):
        new = np.random.default_rng(SEED + 11000 + seed)
        old = np.random.default_rng(SEED + 11000 + seed)
        want = _old_orthogonal_challenge_check(8, old)
        got = orthogonal_challenge_check(8, new)
        assert replace(got, worst_margin=0.0) == replace(want, worst_margin=0.0)
        assert got.worst_margin > 12.0 and want.worst_margin > 12.0
        assert new.bit_generator.state == old.bit_generator.state


class TestOrthogonalChallengeMargin:
    def test_margin_moves_with_the_seed(self):
        # the old margin 1e-12 - pass_prob**2 read exactly 1e-12 at every seed
        margins = {
            orthogonal_challenge_check(5, np.random.default_rng(SEED + s)).worst_margin
            for s in range(4)
        }
        assert len(margins) == 4 and all(12.0 < m < 288.0 for m in margins)

    @pytest.mark.parametrize(
        "p2, want",
        [
            (0.0, 288.0),
            (1e-300, 288.0),
            (1e-14, 2.0),
            (1e-12, 0.0),
            (np.nextafter(1e-12, 1.0), None),
            (1e-10, -2.0),
            (1.0, -12.0),
        ],
    )
    def test_pass_iff_at_most_the_limit(self, p2, want):
        margin = verify._log_margin(p2)
        assert (margin >= 0.0) == (p2 <= 1e-12)
        assert math.isfinite(margin) and json.loads(json.dumps(margin)) == margin
        if want is not None:
            assert margin == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("pass_prob, passed", [(0.0, True), (1e-5, False)])
    def test_check_reports_the_log_margin(self, monkeypatch, pass_prob, passed):
        def failing_stage2(samples, ref, psi):
            raise PostSelectionFailure("stage 2 cannot pass", pass_prob=pass_prob)

        monkeypatch.setattr(verify, "_through_stage2", failing_stage2)
        rep = orthogonal_challenge_check(3, np.random.default_rng(SEED))
        assert rep.passed is passed and rep.violations == (0 if passed else 3)
        assert rep.worst_margin == verify._log_margin(pass_prob**2)


class TestStackedChecksGuards:
    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, np.nan])
    @pytest.mark.parametrize(
        "check", [distance_contraction_check, fidelity_disturbance_check]
    )
    def test_epsilon_outside_unit_interval_rejected(self, check, epsilon, trials):
        rng = np.random.default_rng(SEED)
        with pytest.raises(InvalidQuantumObject):
            check(epsilon, 4, trials, rng)
        assert rng.random() == np.random.default_rng(SEED).random()  # no draw

    @pytest.mark.parametrize("dim, trials", [(4.0, 3), (4, 3.0)])
    @pytest.mark.parametrize(
        "check", [distance_contraction_check, fidelity_disturbance_check]
    )
    def test_non_integer_size_rejected(self, check, dim, trials):
        # a float dimension used to raise a bare TypeError
        rng = np.random.default_rng(SEED)
        with pytest.raises(InvalidQuantumObject, match="must be an integer"):
            check(0.3, dim, trials, rng)
        assert rng.random() == np.random.default_rng(SEED).random()  # no draw

    @pytest.mark.parametrize(
        "run",
        [
            lambda rng: distance_contraction_check(0.3, 4, 0, rng),
            lambda rng: fidelity_disturbance_check(0.3, 4, 0, rng),
            lambda rng: joint_concavity_check(4, 0, rng),
        ],
        ids=["distance", "fidelity", "concavity"],
    )
    def test_zero_trials_pass_vacuously(self, run):
        rep = run(np.random.default_rng(SEED))
        assert (rep.trials, rep.violations, rep.passed) == (0, 0, True)
        assert rep.worst_margin == float("inf")

    def test_peak_memory_does_not_grow_with_trials(self):
        # D = 8: 256 trials a chunk.  Three chunks must peak where one does,
        # under 6 MB; with one stack for all 768 trials the peak is ~11 MB
        def peak(trials):
            tracemalloc.start()
            try:
                fidelity_disturbance_check(0.3, 8, trials, np.random.default_rng(SEED))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(_one_chunk(8)), peak(3 * _one_chunk(8))
        assert three < 6 * 2**20
        assert three < 1.1 * one


def _density_matrices(*stacks):
    """Build a DensityMatrix from every matrix of the ``(..., D, D)`` stacks."""
    for stack in stacks:
        for m in stack.reshape(-1, *stack.shape[-2:]):
            DensityMatrix(m)


class TestUnvalidatedProducers:
    """What the audits build as plain arrays passes the checked constructors."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_pairs_and_mixtures(self, dim):
        # pure states and mixtures at every rank 1..D from raw draws; a
        # padding entry (rank 0) stays exactly zero, with no NaN from 0/0
        rng = np.random.default_rng(SEED + 100 + dim)
        ranks = np.repeat(np.arange(dim + 1), 10)
        states = _mixtures(dim, ranks, rng)
        _density_matrices(states[ranks > 0])
        assert not np.any(states[ranks == 0])

    @pytest.mark.parametrize("epsilon", [0, 0.3, 1])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_disturbed_pairs_and_channel_outputs(self, dim, epsilon, monkeypatch):
        factored = []
        qr = verify._haar_qr

        def kept_qr(z):
            factored.append(qr(z))
            return factored[-1]

        monkeypatch.setattr(verify, "_haar_qr", kept_qr)
        rng = np.random.default_rng(SEED + 200 + dim)
        rho, sigma, eps, out_r, out_s = verify._disturbed_pairs(
            epsilon, dim, range(12), rng
        )
        assert out_r.shape == out_s.shape == (12, 2, dim, dim)
        assert np.all((0.0 <= eps) & (eps <= epsilon))
        _density_matrices(rho, sigma, out_r, out_s)
        (unitaries,) = factored
        for u in unitaries:
            UnitaryMatrix(u)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_concavity_mixtures_and_parts(self, dim, monkeypatch):
        # every stack the concavity audit hands to the fidelity kernel: the
        # two mixtures of each trial, then the parts
        stacks = []
        kernel = verify._fidelity_stack

        def checked(rhos, sigmas):
            _density_matrices(rhos, sigmas)
            stacks.append(len(rhos))
            return kernel(rhos, sigmas)

        monkeypatch.setattr(verify, "_fidelity_stack", checked)
        rep = joint_concavity_check(dim, 12, np.random.default_rng(SEED + 300 + dim))
        assert rep.passed
        assert stacks[0] == 12 and stacks[1] >= 24


def _bad_inputs():
    """(id, check call, error) for each parameter a check must refuse on entry."""
    big = 10**6  # a draw at this size would need terabytes
    # epsilon outside [0, 1]: TestStackedChecksGuards
    for check in (distance_contraction_check, fidelity_disturbance_check):
        name = check.__name__
        for dim in (0, 1):
            yield (f"{name}-D{dim}", lambda rng, c=check, d=dim: c(0.3, d, 3, rng),
                   InvalidQuantumObject)
        yield (f"{name}-D{big}", lambda rng, c=check: c(0.3, big, 3, rng),
               DimensionCapExceeded)
        yield (f"{name}-t-1", lambda rng, c=check: c(0.3, 4, -1, rng),
               InvalidQuantumObject)
    for dim in (0, 1):
        yield (f"concavity-D{dim}", lambda rng, d=dim: joint_concavity_check(d, 3, rng),
               InvalidQuantumObject)
    yield ("concavity-D-big", lambda rng: joint_concavity_check(big, 3, rng),
           DimensionCapExceeded)
    yield ("concavity-t-1", lambda rng: joint_concavity_check(4, -1, rng),
           InvalidQuantumObject)
    yield ("swap-t0", lambda rng: swap_statistics_check(0, rng), InvalidQuantumObject)
    for trials in (0, 1):
        yield (f"weight-t{trials}",
               lambda rng, t=trials: haar_subspace_weight_check(1, 2, t, rng),
               InvalidQuantumObject)
    yield ("weight-D0", lambda rng: haar_subspace_weight_check(0, 0, 100, rng),
           InvalidQuantumObject)
    for d in (-1, 3, 1.5):
        yield (f"weight-d{d}",
               lambda rng, d=d: haar_subspace_weight_check(d, 2, 100, rng),
               InvalidQuantumObject)
    yield ("weight-D-big", lambda rng: haar_subspace_weight_check(1, big, 2, rng),
           DimensionCapExceeded)
    # more than 4300 digits: too long for str(), so the message names its bits
    yield ("weight-D-huge",
           lambda rng: haar_subspace_weight_check(1, 10**5000, 2, rng),
           DimensionCapExceeded)
    yield ("negative-control-t0", lambda rng: negative_control_check(0, rng),
           InvalidQuantumObject)
    for check in (recovery_floor_check, closed_form_check, orthogonal_challenge_check):
        yield (f"{check.__name__}-t-1", lambda rng, c=check: c(-1, rng),
               InvalidQuantumObject)


_BAD_INPUTS = list(_bad_inputs())


class TestEntryChecks:
    @pytest.mark.parametrize(
        "run, error",
        [case[1:] for case in _BAD_INPUTS],
        ids=[case[0] for case in _BAD_INPUTS],
    )
    def test_bad_parameters_raise_before_any_draw(self, run, error):
        rng = np.random.default_rng(SEED)
        with pytest.raises(error):
            run(rng)
        assert rng.random() == np.random.default_rng(SEED).random()

    @pytest.mark.parametrize(
        "run",
        [
            lambda rng: haar_subspace_weight_check(0, 1, 2, rng),
            lambda rng: haar_subspace_weight_check(1, 1, 2, rng),
            lambda rng: distance_contraction_check(0.0, 2, 1, rng),
            lambda rng: fidelity_disturbance_check(1.0, 2, 1, rng),
            lambda rng: joint_concavity_check(2, 1, rng),
            lambda rng: negative_control_check(1, rng),
        ],
        ids=["weight-D1-d0", "weight-D1-d1", "distance-eps0", "fidelity-eps1",
             "concavity-D2", "negative-control-t1"],
    )
    def test_smallest_valid_parameters_run(self, run):
        assert isinstance(run(np.random.default_rng(SEED)), CheckReport)
