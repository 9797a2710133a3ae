"""Device model: generation, the disturbed-channel family, the collision
check and the closed-form diamond distance."""

import tracemalloc

import numpy as np
import pytest

from qpuflab import (
    DensityMatrix,
    DimensionCapExceeded,
    DimensionMismatch,
    EpsilonDisturbedChannel,
    InvalidQuantumObject,
    PreconditionViolation,
    QPufGenParams,
    QPufInstance,
    StateVector,
    UnitaryMatrix,
    channel_apply,
    check_collision,
    fidelity_mixed,
    haar_state,
    qeval,
    qgen,
    trace_distance,
    uniqueness_distance,
)

SEED = 416


def basis(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return StateVector(v)


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = qgen(QPufGenParams(qubits=3, seed=5))
        b = qgen(QPufGenParams(qubits=3, seed=5))
        assert a.id == b.id
        np.testing.assert_allclose(a.unitary.matrix, b.unitary.matrix)

    def test_distinct_seeds_distinct_devices(self):
        a = qgen(QPufGenParams(qubits=2, seed=1))
        b = qgen(QPufGenParams(qubits=2, seed=2))
        assert a.id != b.id
        assert uniqueness_distance(a, b) > 0.1

    def test_param_validation(self):
        with pytest.raises(InvalidQuantumObject):
            QPufGenParams(qubits=0, seed=1)
        with pytest.raises(InvalidQuantumObject):
            QPufGenParams(qubits=2, seed=-1)

    @pytest.mark.parametrize(
        "qubits, seed", [(3.5, 0), (2.0, 0), (2, 1.5), (2, 2**64), (2, "7")]
    )
    def test_non_integer_or_wide_params_rejected(self, qubits, seed):
        # qgen used to raise a bare TypeError on these
        with pytest.raises(InvalidQuantumObject):
            QPufGenParams(qubits=qubits, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        params = QPufGenParams(qubits=np.int64(2), seed=np.uint64(2**64 - 1))
        assert qgen(params).id == "qpuf-n2-ffffffffffffffff"

    @pytest.mark.parametrize("cap", [-5, 0, 1, 2, 3, 8, 16384])
    def test_cap_decided_without_forming_the_dimension(self, cap, monkeypatch):
        monkeypatch.setenv("QPUF_MAX_DIM", str(cap))
        for qubits in range(1, 17):
            if 2**qubits > cap:
                with pytest.raises(DimensionCapExceeded):
                    QPufGenParams(qubits=qubits, seed=0)
            else:
                QPufGenParams(qubits=qubits, seed=0)

    @pytest.mark.parametrize(
        "qubits, error",
        [(10**5000, DimensionCapExceeded), (-(10**5000), InvalidQuantumObject)],
        ids=["huge", "huge-negative"],
    )
    def test_qubit_count_too_long_to_print_rejected(self, qubits, error):
        # str() refuses integers of more than 4300 digits
        with pytest.raises(error, match="16610-bit integer"):
            QPufGenParams(qubits=qubits, seed=0)

    def test_huge_qubit_count_raises_in_constant_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapExceeded):
                QPufGenParams(qubits=10**9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_instance_dim_consistency(self):
        u = qgen(QPufGenParams(qubits=2, seed=3)).unitary
        with pytest.raises(DimensionMismatch):
            QPufInstance(id="x", qubits=3, unitary=u)

    def test_qeval_is_matrix_action(self):
        inst = qgen(QPufGenParams(qubits=2, seed=4))
        psi = haar_state(4, np.random.default_rng(SEED))
        np.testing.assert_allclose(
            qeval(inst, psi).amplitudes, inst.unitary.matrix @ psi.amplitudes
        )


class TestDisturbedChannel:
    def test_epsilon_zero_is_unitary_conjugation(self):
        rng = np.random.default_rng(SEED)
        inst = qgen(QPufGenParams(qubits=2, seed=7))
        ch = EpsilonDisturbedChannel(epsilon=0.0, unitary=inst.unitary)
        psi = haar_state(4, rng)
        out = channel_apply(ch, DensityMatrix.from_state(psi))
        np.testing.assert_allclose(
            out.matrix,
            DensityMatrix.from_state(qeval(inst, psi)).matrix,
            atol=1e-12,
        )

    def test_full_replacement_is_maximally_mixed(self):
        inst = qgen(QPufGenParams(qubits=2, seed=8))
        ch = EpsilonDisturbedChannel(epsilon=1.0, unitary=inst.unitary)
        out = channel_apply(ch, DensityMatrix(np.diag([1.0, 0, 0, 0])))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_depolarizing_effective_weight(self):
        # depolarizing strength 0.5 after an eps = 0.4 device: the member at 0.2
        inst = qgen(QPufGenParams(qubits=1, seed=9))
        ch = EpsilonDisturbedChannel(epsilon=0.2, unitary=inst.unitary)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        u = inst.unitary.matrix
        want = 0.8 * (u @ rho.matrix @ u.conj().T) + 0.2 * np.eye(2) / 2
        np.testing.assert_allclose(channel_apply(ch, rho).matrix, want, atol=1e-12)

    def test_epsilon_range_validation(self):
        u = qgen(QPufGenParams(qubits=1, seed=9)).unitary
        for bad in (-0.1, 1.5):
            with pytest.raises(InvalidQuantumObject):
                EpsilonDisturbedChannel(epsilon=bad, unitary=u)
        for ok in (0.0, 1.0):
            assert EpsilonDisturbedChannel(epsilon=ok, unitary=u).epsilon == ok

    def test_trace_distance_scaling_is_exact(self):
        # the whole family contracts distances by exactly (1 - eps)
        rng = np.random.default_rng(SEED + 1)
        inst = qgen(QPufGenParams(qubits=2, seed=10))
        for eps in (0.3, 0.3 * 0.7):
            ch = EpsilonDisturbedChannel(epsilon=eps, unitary=inst.unitary)
            a = DensityMatrix.from_state(haar_state(4, rng))
            b = DensityMatrix.from_state(haar_state(4, rng))
            d_in = trace_distance(a, b)
            d_out = trace_distance(channel_apply(ch, a), channel_apply(ch, b))
            np.testing.assert_allclose(
                d_out, (1.0 - eps) * d_in, atol=1e-10
            )


class TestRequirementChecks:
    def test_collision_unitary_device_passes(self):
        inst = qgen(QPufGenParams(qubits=2, seed=13))
        ch = EpsilonDisturbedChannel(0.0, inst.unitary)
        rho = DensityMatrix.from_state(basis(4, 0))
        sigma = DensityMatrix.from_state(basis(4, 1))
        assert check_collision(ch, rho, sigma, delta_c=0.9)

    def test_collision_precondition(self):
        inst = qgen(QPufGenParams(qubits=2, seed=14))
        ch = EpsilonDisturbedChannel(0.0, inst.unitary)
        rho = DensityMatrix.from_state(basis(4, 0))
        with pytest.raises(PreconditionViolation):
            check_collision(ch, rho, rho, delta_c=0.9)

    @pytest.mark.parametrize("delta_c", [float("nan"), -0.5, 1.5])
    def test_collision_threshold_outside_unit_interval_rejected(self, delta_c):
        # NaN used to return a silent False, -0.5 a vacuous True, and 1.5 a
        # PreconditionViolation that blamed the inputs
        inst = qgen(QPufGenParams(qubits=2, seed=16))
        ch = EpsilonDisturbedChannel(0.0, inst.unitary)
        rho = DensityMatrix.from_state(basis(4, 0))
        sigma = DensityMatrix.from_state(basis(4, 1))
        with pytest.raises(InvalidQuantumObject, match="delta_c"):
            check_collision(ch, rho, sigma, delta_c=delta_c)

    def test_collision_fails_for_half_disturbed_device(self):
        """Mixing floor pushes orthogonal inputs to fidelity ~0.654 > 0.1.

        For eps = 1/2 on two qubits the outputs are 0.5|out><out| + I/8, so
        F = (2 sqrt(0.625 * 0.125) + 0.25)^2 in the common eigenbasis.
        """
        inst = qgen(QPufGenParams(qubits=2, seed=15))
        ch = EpsilonDisturbedChannel(epsilon=0.5, unitary=inst.unitary)
        rho = DensityMatrix.from_state(basis(4, 0))
        sigma = DensityMatrix.from_state(basis(4, 1))
        expect = (2.0 * np.sqrt(0.625 * 0.125) + 0.25) ** 2
        got = fidelity_mixed(channel_apply(ch, rho), channel_apply(ch, sigma))
        np.testing.assert_allclose(got, expect, atol=1e-10)
        assert not check_collision(ch, rho, sigma, delta_c=0.9)


class TestUniquenessDistance:
    """Closed-form diamond distance for unitary channel pairs."""

    def test_perfectly_distinguishable(self):
        # eigenphases of diag(1, -1) straddle the circle: distance 2
        a = QPufInstance(id="a", qubits=1, unitary=UnitaryMatrix(np.eye(2)))
        b = QPufInstance(
            id="b", qubits=1, unitary=UnitaryMatrix(np.diag([1.0, -1.0]))
        )
        assert uniqueness_distance(a, b) == pytest.approx(2.0)

    def test_equal_up_to_phase_is_zero(self):
        u = qgen(QPufGenParams(qubits=2, seed=16)).unitary
        a = QPufInstance(id="a", qubits=2, unitary=u)
        b = QPufInstance(
            id="b", qubits=2, unitary=UnitaryMatrix(np.exp(1j * 0.9) * u.matrix)
        )
        assert uniqueness_distance(a, b) == pytest.approx(0.0, abs=1e-7)

    def test_quarter_turn_arc(self):
        # spectrum {1, i}: arc width pi/2, distance 2 sin(pi/4) = sqrt(2)
        a = QPufInstance(id="a", qubits=1, unitary=UnitaryMatrix(np.eye(2)))
        b = QPufInstance(
            id="b", qubits=1, unitary=UnitaryMatrix(np.diag([1.0, 1.0j]))
        )
        assert uniqueness_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_narrow_arc_formula(self):
        # phases 0.1 and 0.3: width 0.2, distance 2 sin(0.1)
        a = QPufInstance(id="a", qubits=1, unitary=UnitaryMatrix(np.eye(2)))
        b = QPufInstance(
            id="b",
            qubits=1,
            unitary=UnitaryMatrix(np.diag(np.exp(1j * np.array([0.1, 0.3])))),
        )
        assert uniqueness_distance(a, b) == pytest.approx(2.0 * np.sin(0.1))

    def test_symmetric_and_dim_checked(self):
        a = qgen(QPufGenParams(qubits=2, seed=17))
        b = qgen(QPufGenParams(qubits=2, seed=18))
        assert uniqueness_distance(a, b) == pytest.approx(
            uniqueness_distance(b, a)
        )
        c = qgen(QPufGenParams(qubits=3, seed=19))
        with pytest.raises(DimensionMismatch):
            uniqueness_distance(a, c)
