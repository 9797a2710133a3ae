"""Validation and metric oracles for the dense linear-algebra layer.

Frozen expected values in this file are derived in-test from independent
formulas (commuting-state fidelity, the pure-state trace-distance law, Haar
moments), never from the functions under test.
"""

import numpy as np
import pytest

from qpuflab import games, numerics
from qpuflab import (
    DensityMatrix,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
    Projector,
    StateVector,
    UnitaryMatrix,
    apply,
    fidelity_mixed,
    fidelity_pure,
    haar_state,
    haar_unitary,
    max_dim,
    span_projector,
    sqrt_fidelity_mixed,
    trace_distance,
)

SEED = 20240817


def state(*amps) -> StateVector:
    v = np.array(amps, dtype=np.complex128)
    return StateVector(v / np.linalg.norm(v))


class TestStateVector:
    def test_accepts_normalized(self):
        s = state(1, 1j)
        assert s.dim == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidQuantumObject):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_empty_and_matrix_shaped(self):
        with pytest.raises(InvalidQuantumObject):
            StateVector(np.array([], dtype=complex))
        with pytest.raises(InvalidQuantumObject):
            StateVector(np.eye(2))

    def test_amplitudes_are_read_only(self):
        s = state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_from_state_is_rank_one(self):
        rho = DensityMatrix.from_state(state(1, 1))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidQuantumObject):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidQuantumObject):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidQuantumObject):
            DensityMatrix(np.diag([1.5, -0.5]))


def _nan_entry(m):
    m[0, 1] = np.nan


def _inf_entry(m):
    m[1, 1] = np.inf


def _not_hermitian(m):
    m[0, 1] += 1e-9


def _wrong_trace(m):
    m[0, 0] += 1e-9


def _negative_eigenvalue(m):
    m[...] = np.diag([1.0 + 1e-8, -1e-8, 0.0, 0.0])


class TestStackedValidation:
    """The stack validator runs every DensityMatrix test on every matrix."""

    @staticmethod
    def stack(rng, n=6, dim=4):
        out = np.empty((n, dim, dim), dtype=np.complex128)
        for k in range(n):
            a, b = haar_state(dim, rng).amplitudes, haar_state(dim, rng).amplitudes
            out[k] = 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
        return out

    def test_valid_stacks_pass(self):
        good = self.stack(np.random.default_rng(SEED))
        numerics._check_density(good)
        numerics._check_density(good.reshape(3, 2, 4, 4))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("index", [0, 3, 5])
    @pytest.mark.parametrize(
        "corrupt",
        [_nan_entry, _inf_entry, _not_hermitian, _wrong_trace, _negative_eigenvalue],
    )
    def test_one_bad_matrix_among_good_ones_is_rejected(self, corrupt, index):
        stack = self.stack(np.random.default_rng(SEED + index))
        corrupt(stack[index])
        with pytest.raises(InvalidQuantumObject):
            DensityMatrix(stack[index])
        with pytest.raises(InvalidQuantumObject):
            numerics._check_density(stack)
        with pytest.raises(InvalidQuantumObject):
            numerics._check_density(stack.reshape(3, 2, 4, 4))


class TestUnitaryAndProjector:
    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(InvalidQuantumObject):
            UnitaryMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_projector_rank_from_trace(self):
        p = Projector(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert p.rank == 2

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(InvalidQuantumObject):
            Projector(np.diag([0.5, 0.5]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteInput:
    # NaN compares False against any tolerance, so a check that rejects on
    # "deviation > tol" would let it through; every type must still refuse it
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: StateVector(np.array([x, 0.0])),
            lambda x: UnitaryMatrix(np.array([[x, 0.0], [0.0, 1.0]])),
            lambda x: DensityMatrix(np.array([[x, 0.0], [0.0, 1.0]])),
            lambda x: Projector(np.array([[x, 0.0], [0.0, 1.0]])),
        ],
        ids=["StateVector", "UnitaryMatrix", "DensityMatrix", "Projector"],
    )
    def test_rejected_as_invalid(self, build, bad):
        with pytest.raises(InvalidQuantumObject):
            build(bad)


class TestFidelity:
    """Squared-overlap convention throughout."""

    def test_pure_extremes(self):
        assert fidelity_pure(state(1, 0), state(0, 1)) == 0.0
        assert fidelity_pure(state(1, 0), state(1, 0)) == pytest.approx(1.0)

    def test_pure_half(self):
        # |<0|+>|^2 = 1/2
        assert fidelity_pure(state(1, 0), state(1, 1)) == pytest.approx(0.5)

    def test_global_phase_irrelevant(self):
        a = state(1, 1j)
        b = StateVector(np.exp(1j * 0.7) * a.amplitudes)
        assert fidelity_pure(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_reduces_to_pure_on_rank_one(self):
        # identical pairs too: round-off eigenvalues must not leak into F
        rng = np.random.default_rng(SEED)
        for dim in range(2, 9):
            for _ in range(10):
                a, b = haar_state(dim, rng), haar_state(dim, rng)
                for x, y in ((a, b), (a, a)):
                    f_mix = fidelity_mixed(
                        DensityMatrix.from_state(x), DensityMatrix.from_state(y)
                    )
                    assert abs(f_mix - fidelity_pure(x, y)) <= 1e-12

    def test_commuting_diagonal_oracle(self):
        # for commuting states F = (sum_i sqrt(p_i q_i))^2
        rng = np.random.default_rng(SEED + 1)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            expect = float(np.sum(np.sqrt(p * q)) ** 2)
            got = fidelity_mixed(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
            np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_frozen_diagonal_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sigma = DensityMatrix(np.diag([0.25, 0.75]))
        # (2 * sqrt(0.75 * 0.25))^2 = 4 * 3/16 = 3/4
        assert fidelity_mixed(rho, sigma) == pytest.approx(0.75, abs=1e-12)

    def test_sqrt_form_consistency(self):
        rng = np.random.default_rng(SEED + 2)
        rho = DensityMatrix.from_state(haar_state(3, rng))
        sigma = DensityMatrix(np.eye(3) / 3)
        assert sqrt_fidelity_mixed(rho, sigma) == pytest.approx(
            np.sqrt(fidelity_mixed(rho, sigma))
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity_pure(state(1, 0), state(1, 0, 0))


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = DensityMatrix.from_state(state(1, 0))
        b = DensityMatrix.from_state(state(0, 1))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_pure_pair_sqrt_law(self):
        # D_tr = sqrt(1 - F) exactly for pure states
        rng = np.random.default_rng(SEED + 3)
        for _ in range(10):
            a, b = haar_state(4, rng), haar_state(4, rng)
            d = trace_distance(
                DensityMatrix.from_state(a), DensityMatrix.from_state(b)
            )
            np.testing.assert_allclose(
                d, np.sqrt(1.0 - fidelity_pure(a, b)), atol=1e-10
            )

    def test_diagonal_oracle(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sigma = DensityMatrix(np.diag([0.25, 0.75]))
        assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-12)


class TestSpanProjector:
    def test_duplicates_collapse(self):
        s = state(1, 1j, 0)
        p = span_projector([s, s, s])
        assert p.rank == 1
        np.testing.assert_allclose(p.matrix @ s.amplitudes, s.amplitudes, atol=1e-10)

    def test_rank_and_complement(self):
        rng = np.random.default_rng(SEED + 6)
        states = [haar_state(5, rng) for _ in range(3)]
        p = span_projector(states)
        assert p.rank == 3
        # any member of the family is fixed; a vector orthogonalized against
        # the span is annihilated
        for s in states:
            np.testing.assert_allclose(
                p.matrix @ s.amplitudes, s.amplitudes, atol=1e-9
            )
        v = haar_state(5, rng).amplitudes
        v = v - p.matrix @ v
        np.testing.assert_allclose(p.matrix @ v, 0.0, atol=1e-9)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidQuantumObject):
            span_projector([])


class TestHaarSampling:
    def test_unitary_is_unitary_and_deterministic(self):
        u1 = haar_unitary(8, np.random.default_rng(SEED))
        u2 = haar_unitary(8, np.random.default_rng(SEED))
        np.testing.assert_allclose(u1.matrix, u2.matrix)
        np.testing.assert_allclose(
            u1.matrix.conj().T @ u1.matrix, np.eye(8), atol=1e-12
        )

    def test_state_mean_overlap(self):
        # E |<e_0|psi>|^2 = 1/D for Haar states
        rng = np.random.default_rng(SEED + 7)
        dim, trials = 4, 4000
        overlaps = np.array(
            [abs(haar_state(dim, rng).amplitudes[0]) ** 2 for _ in range(trials)]
        )
        se = overlaps.std(ddof=1) / np.sqrt(trials)
        assert abs(overlaps.mean() - 1.0 / dim) < 3.0 * se

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("QPUF_MAX_DIM", "8")
        assert max_dim() == 8
        rng = np.random.default_rng(SEED)
        with pytest.raises(DimensionCapExceeded):
            haar_state(9, rng)


def ginibre_qr_reference(dim, rng):
    """The one-matrix Ginibre-QR-phase construction, unstacked."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestStackedHaarDraw:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 64])
    def test_byte_identical_to_one_draw_per_generator(self, dim):
        # stack sizes 1, 3, the estimate_win_rate chunk and one past it;
        # stacks of the same generators agree on their common prefix
        chunk = max(1, games._DRAW_CHUNK // dim**2)
        counts = sorted({1, 3, chunk, chunk + 1})
        children = np.random.SeedSequence([SEED, dim]).spawn(counts[-1])

        def rngs(count):
            return [np.random.default_rng(c) for c in children[:count]]

        one_by_one = np.stack([haar_unitary(dim, g).matrix for g in rngs(counts[-1])])
        for ref, want in zip(rngs(3), one_by_one):
            assert ginibre_qr_reference(dim, ref).tobytes() == want.tobytes()
        for count in counts:
            stack = numerics._haar_unitary_stack(dim, rngs(count))
            assert stack.shape == (count, dim, dim)
            assert stack.tobytes() == one_by_one[:count].tobytes()

    def test_leaves_each_generator_where_one_draw_does(self):
        stacked = [np.random.default_rng(k) for k in range(3)]
        numerics._haar_unitary_stack(4, stacked)
        for k, rng in enumerate(stacked):
            alone = np.random.default_rng(k)
            haar_unitary(4, alone)
            assert rng.random() == alone.random()

    def test_dimension_checks(self, monkeypatch):
        rngs = [np.random.default_rng(SEED)]
        with pytest.raises(InvalidQuantumObject):
            numerics._haar_unitary_stack(0, rngs)
        monkeypatch.setenv("QPUF_MAX_DIM", "8")
        with pytest.raises(DimensionCapExceeded):
            numerics._haar_unitary_stack(16, rngs)


def test_apply_matches_matrix_product():
    rng = np.random.default_rng(SEED + 8)
    u = haar_unitary(4, rng)
    psi = haar_state(4, rng)
    np.testing.assert_allclose(
        apply(u, psi).amplitudes, u.matrix @ psi.amplitudes, atol=1e-12
    )
    with pytest.raises(DimensionMismatch):
        apply(u, haar_state(2, rng))
