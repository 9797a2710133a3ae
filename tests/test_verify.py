"""The audit battery must pass on honest claims and flag the planted false one."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qpuflab import numerics, verify
from qpuflab import (
    CheckReport,
    DimensionCapExceeded,
    EpsilonDisturbedChannel,
    InvalidQuantumObject,
    PostSelectionFailure,
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
        assert rep.violations == 0

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


# ---------------------------------------------------------------------------
# The per-trial disturbance checks and 2-d kernels that the stacked ones
# replaced, kept verbatim as a bit-level oracle: every report of a stacked
# check, and every single-pair metric, must be equal to theirs.


def _old_fidelity_mixed(rho, sigma):
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(_old_drop_round_off(w))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    eigs = _old_drop_round_off(np.linalg.eigvalsh(inner))
    return float(np.sum(np.sqrt(eigs)) ** 2)


def _old_drop_round_off(w):
    return np.where(w > 1e-12 * w[-1], w, 0.0)


def _old_sqrt_fidelity_mixed(rho, sigma):
    return float(np.sqrt(_old_fidelity_mixed(rho, sigma)))


def _old_trace_distance(rho, sigma):
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))


def _old_channel_apply(channel, rho):
    u = channel.unitary.matrix
    ideal = u @ rho.matrix @ u.conj().T
    eps = channel.epsilon
    mixed = np.eye(rho.dim) / rho.dim
    return DensityMatrix((1.0 - eps) * ideal + eps * mixed)


def _old_report(name, margins, detail=""):
    worst = min(margins) if margins else float("inf")
    violations = sum(1 for m in margins if m < 0.0)
    return CheckReport(
        name=name,
        trials=len(margins),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        detail=detail,
    )


def _old_random_mixed(dim, rank, rng):
    weights = rng.dirichlet(np.ones(rank))
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        s = haar_state(dim, rng).amplitudes
        acc += w * np.outer(s, s.conj())
    return DensityMatrix(acc)


def _old_random_pair(dim, rng, mixed):
    if mixed:
        rank = int(rng.integers(2, dim + 1))
        return _old_random_mixed(dim, rank, rng), _old_random_mixed(dim, rank, rng)
    a = haar_state(dim, rng)
    b = haar_state(dim, rng)
    return DensityMatrix.from_state(a), DensityMatrix.from_state(b)


def _old_both_channels(epsilon, dim, rng):
    u = haar_unitary(dim, rng)
    strength = float(rng.uniform(0.2, 1.0))
    return (
        EpsilonDisturbedChannel(epsilon, u),
        EpsilonDisturbedChannel(epsilon * strength, u),
    )


def _old_distance_contraction_check(epsilon, dim, trials, rng):
    margins = []
    for t in range(trials):
        rho, sigma = _old_random_pair(dim, rng, mixed=bool(t % 2))
        d_in = _old_trace_distance(rho, sigma)
        for channel in _old_both_channels(epsilon, dim, rng):
            d_out = _old_trace_distance(
                _old_channel_apply(channel, rho), _old_channel_apply(channel, sigma)
            )
            gap = d_in - d_out
            margins.append(gap + 1e-8)  # contractivity
            margins.append(epsilon * d_in - gap + 1e-8)  # bounded shrinkage
            exact = (1.0 - channel.epsilon) * d_in
            margins.append(1e-8 - abs(d_out - exact))  # exact law
    return _old_report(
        "distance-contraction", margins, detail=f"eps={epsilon} D={dim}"
    )


def _old_fidelity_disturbance_check(epsilon, dim, trials, rng):
    margins = []
    for t in range(trials):
        mixed = bool(t % 2)
        rho, sigma = _old_random_pair(dim, rng, mixed=mixed)
        f_in = _old_fidelity_mixed(rho, sigma)
        g_in = float(np.sqrt(f_in))  # what sqrt_fidelity_mixed returns
        d_in = _old_trace_distance(rho, sigma)
        for channel in _old_both_channels(epsilon, dim, rng):
            out_r = _old_channel_apply(channel, rho)
            out_s = _old_channel_apply(channel, sigma)
            f_out = _old_fidelity_mixed(out_r, out_s)
            g_out = float(np.sqrt(f_out))
            margins.append(f_out - f_in + 1e-8)  # monotone, squared
            margins.append(g_out - g_in + 1e-8)  # monotone, square root
            margins.append(g_out - (1.0 - epsilon) * g_in + 1e-8)  # concavity
            if not mixed:
                bound = 2.0 * channel.epsilon * d_in
                margins.append(bound - (f_out - f_in) + 1e-8)
    return _old_report(
        "fidelity-disturbance", margins, detail=f"eps={epsilon} D={dim}"
    )


def _old_joint_concavity_check(dim, trials, rng):
    margins = []
    for _ in range(trials):
        parts = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(parts))
        rhos = [_old_random_pair(dim, rng, mixed=bool(k % 2))[0] for k in range(parts)]
        sigmas = [_old_random_pair(dim, rng, mixed=bool(k % 2))[1] for k in range(parts)]
        mix_r = DensityMatrix(
            sum(w * r.matrix for w, r in zip(weights, rhos))
        )
        mix_s = DensityMatrix(
            sum(w * s.matrix for w, s in zip(weights, sigmas))
        )
        lhs = _old_sqrt_fidelity_mixed(mix_r, mix_s)
        rhs = float(
            sum(
                w * _old_sqrt_fidelity_mixed(r, s)
                for w, r, s in zip(weights, rhos, sigmas)
            )
        )
        margins.append(lhs - rhs + 1e-8)
    return _old_report("sqrt-fidelity-joint-concavity", margins, detail=f"D={dim}")


def _one_chunk(dim):
    return max(1, verify._STACK_CHUNK // dim**2)


def _pairs(dim, rng):
    """Pure, mixed, identical and orthogonal input pairs."""
    a, b = haar_state(dim, rng).amplitudes, haar_state(dim, rng).amplitudes
    b_perp = b - np.vdot(a, b) * a
    pure = DensityMatrix.from_state(StateVector(a))
    yield pure, DensityMatrix.from_state(StateVector(b))
    yield pure, DensityMatrix.from_state(StateVector(b_perp / np.linalg.norm(b_perp)))
    yield pure, pure
    for rank in (2, dim):
        rho = verify._random_mixed(dim, rank, rng)
        yield DensityMatrix(rho), DensityMatrix(verify._random_mixed(dim, rank, rng))
        yield DensityMatrix(rho), DensityMatrix(rho)


class TestStackedChecksBits:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("epsilon", [0, 0.1, 0.3, 0.5, 1])
    def test_disturbance_checks_match_per_trial_loops(self, epsilon, dim, seed):
        for trials in (0, 1, 2, 61):
            for new, old in (
                (distance_contraction_check, _old_distance_contraction_check),
                (fidelity_disturbance_check, _old_fidelity_disturbance_check),
            ):
                s = SEED + 1000 * seed + trials
                got = new(epsilon, dim, trials, np.random.default_rng(s))
                assert got == old(epsilon, dim, trials, np.random.default_rng(s))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_joint_concavity_matches_per_trial_loop(self, dim, seed):
        for trials in (0, 1, 2, 61):
            s = SEED + 1000 * seed + trials
            want = _old_joint_concavity_check(dim, trials, np.random.default_rng(s))
            assert joint_concavity_check(dim, trials, np.random.default_rng(s)) == want

    def test_one_chunk_and_one_trial(self):
        # D = 8 keeps this fast: a chunk is 256 trials there, 4096 at D = 2
        dim = 8
        trials = _one_chunk(dim) + 1
        s = SEED + 7000
        for new, old in (
            (distance_contraction_check, _old_distance_contraction_check),
            (fidelity_disturbance_check, _old_fidelity_disturbance_check),
        ):
            got = new(0.3, dim, trials, np.random.default_rng(s))
            assert got == old(0.3, dim, trials, np.random.default_rng(s))
        got = joint_concavity_check(dim, trials, np.random.default_rng(s))
        assert got == _old_joint_concavity_check(dim, trials, np.random.default_rng(s))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_odd_sized_chunks(self, dim, monkeypatch):
        # three trials a chunk: chunks start on odd trials too, where the
        # pure/mixed alternation must carry on from the previous chunk
        monkeypatch.setattr(verify, "_STACK_CHUNK", 3 * dim**2)
        s = SEED + 8000 + dim
        for new, old in (
            (distance_contraction_check, _old_distance_contraction_check),
            (fidelity_disturbance_check, _old_fidelity_disturbance_check),
        ):
            got = new(0.5, dim, 13, np.random.default_rng(s))
            assert got == old(0.5, dim, 13, np.random.default_rng(s))
        got = joint_concavity_check(dim, 13, np.random.default_rng(s))
        assert got == _old_joint_concavity_check(dim, 13, np.random.default_rng(s))

    @pytest.mark.parametrize("dim", [*range(2, 9), 64])
    def test_single_pair_functions_match_2d_kernels(self, dim):
        rng = np.random.default_rng(SEED + 9000 + dim)
        for _ in range(3):
            for rho, sigma in _pairs(dim, rng):
                assert fidelity_mixed(rho, sigma) == _old_fidelity_mixed(rho, sigma)
                assert sqrt_fidelity_mixed(rho, sigma) == _old_sqrt_fidelity_mixed(
                    rho, sigma
                )
                assert trace_distance(rho, sigma) == _old_trace_distance(rho, sigma)
                channel = EpsilonDisturbedChannel(
                    float(rng.uniform()), haar_unitary(dim, rng)
                )
                assert np.array_equal(
                    channel_apply(channel, rho).matrix,
                    _old_channel_apply(channel, rho).matrix,
                )


def _old_orthogonal_challenge_check(trials, rng):
    """The check's draws as when it projected with the D x D span projector,
    with its margins in decades."""
    margins = []
    for _ in range(trials):
        cfg, _ = verify._random_qe_config(rng, (2, 3), (2, 3))
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
    return _old_report("orthogonal-challenge-rejection", margins)


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
        def failing_run_full(cfg, psi):
            raise PostSelectionFailure("stage 2 cannot pass", pass_prob=pass_prob)

        monkeypatch.setattr(verify, "run_full", failing_run_full)
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
        rng = np.random.default_rng(SEED + 100 + dim)
        for _ in range(10):
            for mixed in (False, True):
                _density_matrices(np.array(verify._random_pair(dim, rng, mixed)))
            for rank in range(1, dim + 1):
                _density_matrices(verify._random_mixed(dim, rank, rng))

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
