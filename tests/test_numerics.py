"""Validation and metric oracles for the dense linear-algebra layer.

Frozen expected values in this file are derived in-test from independent
formulas (commuting-state fidelity, the pure-state trace-distance law, Haar
moments), never from the functions under test.
"""

import math

import numpy as np
import pytest

import oracles
from qpuflab import numerics
from qpuflab import (
    DensityMatrix,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
    StateVector,
    UnitaryMatrix,
    apply,
    fidelity_mixed,
    fidelity_pure,
    haar_state,
    haar_unitary,
    max_dim,
    sqrt_fidelity_mixed,
    trace_distance,
)
from qpuflab.numerics import Projector, span_projector

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


class TestDensityCorruptions:
    """DensityMatrix rejects each corruption of a valid mixed state."""

    @staticmethod
    def stack(rng, n=6, dim=4):
        out = np.empty((n, dim, dim), dtype=np.complex128)
        for k in range(n):
            a, b = haar_state(dim, rng).amplitudes, haar_state(dim, rng).amplitudes
            out[k] = 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
        return out

    def test_valid_mixtures_pass(self):
        for m in self.stack(np.random.default_rng(SEED)):
            DensityMatrix(m)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("index", [0, 3, 5])
    @pytest.mark.parametrize(
        "corrupt",
        [_nan_entry, _inf_entry, _not_hermitian, _wrong_trace, _negative_eigenvalue],
    )
    def test_corrupted_matrix_is_rejected(self, corrupt, index):
        m = self.stack(np.random.default_rng(SEED + index))[index]
        corrupt(m)
        with pytest.raises(InvalidQuantumObject):
            DensityMatrix(m)


class TestUnitaryAndProjector:
    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(InvalidQuantumObject):
            UnitaryMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_projector_rank_is_the_row_count(self, rank):
        rows = haar_unitary(6, np.random.default_rng(SEED + rank)).matrix[:rank]
        p = Projector(rows)
        assert (p.rank, p.dim) == (rank, 6)
        assert p.basis.dtype == np.complex128 and not p.basis.flags.writeable

    def test_projector_accepts_rows_within_tolerance(self):
        assert Projector(np.eye(4)[:2] * (1.0 + 2e-11)).rank == 2

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[1.0, 0.0], [1.0, 1.0]]) / np.sqrt([[1.0], [2.0]]),
            np.eye(4)[:2] * 1.001,
            np.array([1.0, 0.0]),
            np.eye(2)[np.newaxis],
        ],
        ids=["non-orthonormal", "scaled-1.001", "1-d", "3-d"],
    )
    def test_projector_rejects_bad_rows(self, rows):
        with pytest.raises(InvalidQuantumObject):
            Projector(rows)


class TestSeedRule:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), True])
    def test_unsigned_64_bit_integers_accepted(self, seed):
        numerics._check_seed(seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**100)])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(InvalidQuantumObject) as info:
            numerics._check_seed(seed)
        assert str(info.value) == "seed must fit in an unsigned 64-bit integer"

    @pytest.mark.parametrize("seed", [1.5, 2.0, float("nan"), "7", None])
    def test_non_integer_rejected(self, seed):
        with pytest.raises(InvalidQuantumObject, match="seed must be an integer"):
            numerics._check_seed(seed)


class TestGramDeviation:
    def test_empty_family_reads_zero(self):
        assert numerics._gram_deviation(np.zeros((0, 4))) == 0.0
        assert numerics._gram_deviation(np.array([])) == 0.0

    def test_reads_the_largest_entry(self):
        rows = np.eye(3)[:2] * np.array([[1.0], [1.5]])
        assert numerics._gram_deviation(rows) == 1.25

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_propagates(self):
        assert math.isnan(numerics._gram_deviation(np.array([[np.nan, 0.0]])))


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


def dense(p: Projector) -> np.ndarray:
    """The ``D x D`` operator ``sum_i |e_i><e_i|`` of the basis rows ``e_i``."""
    b = p.basis
    return b.T @ b.conj()


class TestSpanProjector:
    def test_duplicates_collapse(self):
        s = state(1, 1j, 0)
        p = span_projector([s, s, s])
        assert p.rank == 1
        np.testing.assert_allclose(dense(p) @ s.amplitudes, s.amplitudes, atol=1e-10)

    def test_rank_and_complement(self):
        rng = np.random.default_rng(SEED + 6)
        states = [haar_state(5, rng) for _ in range(3)]
        p = span_projector(states)
        assert p.rank == 3
        proj = dense(p)
        # any member of the family is fixed; a vector orthogonalized against
        # the span is annihilated
        for s in states:
            np.testing.assert_allclose(proj @ s.amplitudes, s.amplitudes, atol=1e-9)
        v = haar_state(5, rng).amplitudes
        v = v - proj @ v
        np.testing.assert_allclose(proj @ v, 0.0, atol=1e-9)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidQuantumObject):
            span_projector([])


def old_complement_draw(basis_out, dim, rng):
    """The subspace adversary's complement loop before it moved to numerics."""
    while True:
        v = numerics._haar_vector(dim, rng)
        for b_out in basis_out:
            v -= np.vdot(b_out.amplitudes, v) * b_out.amplitudes
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


class TestComplementVector:
    @staticmethod
    def family(dim, r, rng):
        states = [haar_state(dim, rng) for _ in range(r)]
        rows = span_projector(states).basis if r else np.empty((0, dim))
        return rows, [StateVector(e) for e in rows]

    @pytest.mark.parametrize("dim, r", [(2, 0), (2, 1), (4, 2), (8, 7), (64, 8)])
    def test_unit_norm_and_orthogonal_to_every_row(self, dim, r):
        rng = np.random.default_rng(SEED + 100 * dim + r)
        rows, _ = self.family(dim, r, rng)
        for _ in range(5):
            v = numerics._complement_vector(rows, dim, rng)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            for e in rows:
                assert abs(np.vdot(e, v)) <= 1e-12

    @pytest.mark.parametrize("dim, r", [(2, 0), (4, 1), (4, 3), (16, 5), (64, 8)])
    def test_same_bits_and_stream_as_the_old_loop(self, dim, r):
        rows, states = self.family(dim, r, np.random.default_rng(SEED + dim + r))
        new = np.random.default_rng(SEED + 7 * dim)
        old = np.random.default_rng(SEED + 7 * dim)
        # the audit passes the basis array, the subspace adversary a list
        for form in (rows, [s.amplitudes for s in states]) * 3:
            v = numerics._complement_vector(form, dim, new)
            assert v.tobytes() == old_complement_draw(states, dim, old).tobytes()
        assert new.bit_generator.state == old.bit_generator.state

    def test_retries_a_draw_inside_the_span(self, monkeypatch):
        rows = np.eye(4, dtype=np.complex128)[:2]
        draws = [rows[1].copy(), np.full(4, 0.5, dtype=np.complex128)]
        monkeypatch.setattr(numerics, "_haar_vector", lambda dim, rng: draws.pop(0))
        v = numerics._complement_vector(rows, 4, np.random.default_rng(SEED))
        assert draws == []
        np.testing.assert_allclose(v, [0, 0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)


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

    @pytest.mark.parametrize("dim", [0, -1, float("nan")])
    def test_dimension_below_one_or_nan_rejected(self, dim):
        with pytest.raises(InvalidQuantumObject):
            haar_state(dim, np.random.default_rng(SEED))

    @pytest.mark.parametrize("dim", [4.0, np.float64(4.0), "4"])
    def test_non_integer_dimension_rejected(self, dim):
        # haar_unitary used to raise a bare TypeError on 4.0
        rng = np.random.default_rng(SEED)
        for draw in (haar_unitary, haar_state):
            with pytest.raises(InvalidQuantumObject, match="must be an integer"):
                draw(dim, rng)
        assert rng.random() == np.random.default_rng(SEED).random()  # no draw

    @pytest.mark.parametrize(
        "dim, error",
        [(10**5000, DimensionCapExceeded), (-(10**5000), InvalidQuantumObject)],
        ids=["huge", "huge-negative"],
    )
    def test_dimension_too_long_to_print_rejected(self, dim, error):
        # str() refuses integers of more than 4300 digits
        with pytest.raises(error, match="16610-bit integer"):
            haar_state(dim, np.random.default_rng(SEED))


class TestHaarVector:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 64])
    def test_same_bits_and_stream_as_haar_state(self, dim):
        raw = np.random.default_rng(SEED + dim)
        checked = np.random.default_rng(SEED + dim)
        for _ in range(5):
            v = numerics._haar_vector(dim, raw)
            assert v.tobytes() == haar_state(dim, checked).amplitudes.tobytes()
            StateVector(v)  # the unvalidated draw passes the checked constructor
            assert v.flags.writeable  # the caller owns it
        assert raw.random() == checked.random()


def ginibre_qr_reference(dim, rng):
    """The one-matrix Ginibre-QR-phase construction, unstacked."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return oracles.haar_isometry(z)


class TestStackedHaarDraw:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 64])
    def test_haar_unitary_is_the_ginibre_qr_reference(self, dim):
        children = np.random.SeedSequence([SEED, dim]).spawn(3)
        for child in children:
            want = ginibre_qr_reference(dim, np.random.default_rng(child))
            got = haar_unitary(dim, np.random.default_rng(child)).matrix
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 3, 14])
    @pytest.mark.parametrize("dim, cols", [(2, 1), (8, 3), (16, 5), (64, 9), (64, 64)])
    def test_isometry_stack_is_the_per_matrix_recipe(self, dim, cols, count):
        # the stack's 1/sqrt(2) scale, QR and phase fix, matrix by matrix as
        # the oracle divides, factors and fixes one draw; a lone draw is
        # factored unstacked and a chunk of 14 is the (8, 6) cell's
        rng = np.random.default_rng([SEED, dim, cols, count])
        draws = np.array([numerics._ginibre(dim, rng, cols) for _ in range(count)])
        want = [oracles.haar_isometry(z).tobytes() for z in draws]
        assert [u.tobytes() for u in numerics._haar_qr(draws)] == want

    @pytest.mark.parametrize("dim, cols", [(4, 1), (8, 3), (16, 16), (64, 9)])
    def test_isometry_stack_is_each_block_alone(self, dim, cols):
        # games factor a chunk of devices' (D, k) blocks in one stacked QR
        rng = np.random.default_rng(SEED + dim + cols)
        blocks = np.array([numerics._ginibre(dim, rng, cols) for _ in range(5)])
        alone = [numerics._haar_qr(b[np.newaxis].copy())[0] for b in blocks]
        stack = numerics._haar_qr(blocks)
        assert stack.shape == (5, dim, cols)
        assert stack.tobytes() == np.array(alone).tobytes()
        dev = np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(cols)).max()
        assert dev <= 1e-12

    def test_dimension_checks(self, monkeypatch):
        rng = np.random.default_rng(SEED)
        with pytest.raises(InvalidQuantumObject):
            haar_unitary(0, rng)
        monkeypatch.setenv("QPUF_MAX_DIM", "8")
        with pytest.raises(DimensionCapExceeded):
            haar_unitary(16, rng)


def test_apply_matches_matrix_product():
    rng = np.random.default_rng(SEED + 8)
    u = haar_unitary(4, rng)
    psi = haar_state(4, rng)
    np.testing.assert_allclose(
        apply(u, psi).amplitudes, u.matrix @ psi.amplitudes, atol=1e-12
    )
    with pytest.raises(DimensionMismatch):
        apply(u, haar_state(2, rng))
