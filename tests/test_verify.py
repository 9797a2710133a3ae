"""The audit battery must pass on honest claims and flag the planted false one."""

import numpy as np
import pytest

from qpuflab import numerics, verify
from qpuflab import (
    CheckReport,
    StateVector,
    closed_form_check,
    distance_contraction_check,
    fidelity_disturbance_check,
    haar_state,
    haar_subspace_weight_check,
    joint_concavity_check,
    negative_control_check,
    orthogonal_challenge_check,
    pure_state_distance_bound,
    recovery_floor_check,
    run_all_checks,
    swap_statistics_check,
    trace_distance,
    DensityMatrix,
)

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
        # F_in, then F_out per channel; the square roots reuse them.  The
        # numerics patch counts any call made through sqrt_fidelity_mixed.
        calls = []
        real = numerics.fidelity_mixed

        def counted(rho, sigma):
            calls.append(1)
            return real(rho, sigma)

        monkeypatch.setattr(verify, "fidelity_mixed", counted)
        monkeypatch.setattr(numerics, "fidelity_mixed", counted)
        fidelity_disturbance_check(0.3, 4, 4, np.random.default_rng(SEED + 7))
        assert len(calls) == 12

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

    def test_reproducible_across_runs(self):
        a = [r.as_dict() for r in run_all_checks(seed=9)]
        b = [r.as_dict() for r in run_all_checks(seed=9)]
        assert a == b
