"""Emulation circuit: gates, closed form, success law, and stage-2 modes.

The oracles here are independent re-derivations: the block recursion is
re-implemented with dense matrices (the gate builders below exist only for
that), the closed-form coefficients are spelled out from the reflection
algebra, and the success probability is computed from the reduced density
matrix by hand.
"""

import numpy as np
import pytest

from qpuflab import (
    INPUT_LABEL,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
    PostSelectionFailure,
    QeConfig,
    QPufGenParams,
    QPufInstance,
    StateVector,
    UnitaryMatrix,
    closed_form_state,
    haar_state,
    haar_unitary,
    make_forger_plan,
    pure_state_distance_bound,
    qeval,
    qgen,
    run_full,
    run_stage1,
    stage1_closed_form,
)

SEED = 977

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
HGATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def reflection(phi):
    """Householder reflection ``I - 2|phi><phi|`` as a raw matrix."""
    amps = phi.amplitudes
    return np.eye(phi.dim, dtype=np.complex128) - 2.0 * np.outer(amps, amps.conj())


def controlled_reflection(phi):
    """Identity on control ``|0>``, reflection on ``|1>``; control first."""
    zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    one = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    return UnitaryMatrix(np.kron(zero, np.eye(phi.dim)) + np.kron(one, reflection(phi)))


def block_unitary(sample, reference):
    """Stage-1 block as a (control x system) matrix.

    Applies, right to left: reflection around the reference, Hadamard on the
    control, reflection around the sample.
    """
    h_on_control = np.kron(HGATE, np.eye(sample.dim))
    mat = (
        controlled_reflection(sample).matrix
        @ h_on_control
        @ controlled_reflection(reference).matrix
    )
    return UnitaryMatrix(mat)


def basis(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return StateVector(v)


def random_config(rng, n=2, k=2, in_span=False):
    dim = 2**n
    u = haar_unitary(dim, rng)
    samples_in = tuple(haar_state(dim, rng) for _ in range(k))
    samples_out = tuple(StateVector(u.matrix @ s.amplitudes) for s in samples_in)
    cfg = QeConfig(
        samples_in=samples_in,
        samples_out=samples_out,
        reference_index=int(rng.integers(k)),
    )
    if in_span:
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = sum(ci * s.amplitudes for ci, s in zip(c, samples_in))
        psi = StateVector(v / np.linalg.norm(v))
    else:
        psi = haar_state(dim, rng)
    return cfg, psi, u


# The moveaxis/tensordot gate kernels the emulator used before it worked on
# reshaped views, kept verbatim with the run built on them.  They are a
# bit-level oracle: the view kernels must reproduce every output bit.
_SQRT2 = np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / _SQRT2


def _controlled_reflect(joint: np.ndarray, phi: np.ndarray, axis: int) -> np.ndarray:
    """Reflect the system register on the ``|1>`` branch of one ancilla axis."""
    moved = np.moveaxis(joint, axis, -1).copy()
    branch = moved[..., 1]
    overlap = np.tensordot(phi.conj(), branch, axes=(0, 0))
    moved[..., 1] = branch - 2.0 * np.multiply.outer(phi, overlap)
    return np.moveaxis(moved, -1, axis)


def _hadamard(joint: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(joint, axis, -1).copy()
    s0 = moved[..., 0].copy()
    s1 = moved[..., 1].copy()
    moved[..., 0] = (s0 + s1) / _SQRT2
    moved[..., 1] = (s0 - s1) / _SQRT2
    return np.moveaxis(moved, -1, axis)


def _tensor_blocks(joint, cfg, samples, reverse=False):
    ref = samples[cfg.reference_index].amplitudes
    blocks = [
        (1 + pos, ref, samples[i].amplitudes)
        for pos, i in enumerate(cfg.block_sample_indices)
    ]
    for axis, a, b in reversed(blocks) if reverse else blocks:
        if reverse:
            a, b = b, a
        joint = _controlled_reflect(joint, a, axis)
        joint = _hadamard(joint, axis)
        joint = _controlled_reflect(joint, b, axis)
    return joint


def tensor_run(cfg, psi, draw=None):
    """Stage-1 joint, pass probability, stage-2 bit and output matrix.

    ``draw`` stands for the sampled run's one uniform; ``None`` conditions
    on the passing outcome.
    """
    d = cfg.dim
    ref_in = cfg.samples_in[cfg.reference_index].amplitudes
    ref_out = cfg.samples_out[cfg.reference_index].amplitudes
    joint = psi.amplitudes
    for _ in range(cfg.n_blocks):
        joint = np.multiply.outer(joint, _MINUS)
    joint = _tensor_blocks(joint, cfg, cfg.samples_in)
    anc_overlap = np.tensordot(ref_in.conj(), joint, axes=(0, 0))
    pass_prob = float(np.sum(np.abs(anc_overlap) ** 2))
    pass_prob = min(max(pass_prob, 0.0), 1.0)
    bit = 0 if draw is None or draw < pass_prob else 1
    if bit:
        fail = joint - np.multiply.outer(ref_in, anc_overlap)
        final = fail / np.linalg.norm(fail)
    else:
        omega = anc_overlap / np.sqrt(pass_prob)
        final = _tensor_blocks(
            np.multiply.outer(ref_out, omega), cfg, cfg.samples_out, reverse=True
        )
    mat = final.reshape(d, -1)
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return joint.reshape(-1), pass_prob, bit, rho / float(np.trace(rho).real)


class FixedDraw:
    """Stands in for the rng of a sampled run: its one uniform is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestGates:
    def test_reflection_is_unitary_involution(self):
        rng = np.random.default_rng(SEED)
        phi = haar_state(4, rng)
        r = reflection(phi)
        np.testing.assert_allclose(r @ r, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(r.conj().T @ r, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(r @ phi.amplitudes, -phi.amplitudes, atol=1e-12)

    def test_reflection_fixes_orthogonal_states(self):
        r = reflection(basis(3, 0))
        v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(r @ v, v, atol=1e-12)

    def test_controlled_reflection_branches(self):
        rng = np.random.default_rng(SEED + 1)
        phi = haar_state(3, rng)
        target = haar_state(3, rng)
        cr = controlled_reflection(phi).matrix
        on_zero = cr @ np.kron([1.0, 0.0], target.amplitudes)
        np.testing.assert_allclose(
            on_zero, np.kron([1.0, 0.0], target.amplitudes), atol=1e-12
        )
        on_one = cr @ np.kron([0.0, 1.0], target.amplitudes)
        np.testing.assert_allclose(
            on_one, np.kron([0.0, 1.0], reflection(phi) @ target.amplitudes),
            atol=1e-12,
        )

    def test_block_conjugation_identity(self):
        """Conjugating the system factor by U re-targets the block's states.

        (I (x) U) W(s, r) (I (x) U)^dag == W(U s, U r) -- the identity that
        lets output-sample blocks play the role of time-reversed input
        blocks.
        """
        rng = np.random.default_rng(SEED + 2)
        for _ in range(5):
            dim = 4
            u = haar_unitary(dim, rng)
            s, r = haar_state(dim, rng), haar_state(dim, rng)
            left = (
                np.kron(np.eye(2), u.matrix)
                @ block_unitary(s, r).matrix
                @ np.kron(np.eye(2), u.matrix.conj().T)
            )
            right = block_unitary(
                StateVector(u.matrix @ s.amplitudes),
                StateVector(u.matrix @ r.amplitudes),
            ).matrix
            np.testing.assert_allclose(left, right, atol=1e-10)


class TestStage1Circuit:
    def test_single_block_matches_block_matrix(self):
        rng = np.random.default_rng(SEED + 3)
        cfg, psi, _ = random_config(rng, n=2, k=2)
        ref = cfg.samples_in[cfg.reference_index]
        sample = cfg.samples_in[cfg.block_sample_indices[0]]
        joint = run_stage1(cfg, psi)
        # circuit layout is system-major; the block matrix is control-major
        got = joint.amplitudes.reshape(4, 2).T.reshape(-1)
        want = block_unitary(sample, ref).matrix @ np.kron(MINUS, psi.amplitudes)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_recursion_oracle_reproduces_snapshots(self):
        """Dense-matrix re-implementation of the per-block recursion.

        chi_i = [(I - R_ref) chi_{i-1} |0> + R_i (I + R_ref) chi_{i-1} |1>]/2
        with operators kron-extended over the ancillas added so far.  The
        state after block i is the circuit output of the config holding only
        the reference and the first i block samples.
        """
        rng = np.random.default_rng(SEED + 4)
        cfg, psi, _ = random_config(rng, n=2, k=3)
        ref = cfg.samples_in[cfg.reference_index].amplitudes

        chi = psi.amplitudes
        dim = cfg.dim
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for pos, idx in enumerate(cfg.block_sample_indices):
            width = chi.shape[0] // dim
            grow = np.kron(np.eye(dim, dtype=complex), np.eye(width))
            r_ref = np.kron(reflection(StateVector(ref)), np.eye(width))
            r_smp = np.kron(
                reflection(cfg.samples_in[idx]), np.eye(width)
            )
            left = (grow - r_ref) @ chi
            right = r_smp @ (grow + r_ref) @ chi
            chi = 0.5 * (np.kron(left, e0) + np.kron(right, e1))
            kept = sorted(cfg.block_sample_indices[: pos + 1] + (cfg.reference_index,))
            prefix = QeConfig(
                samples_in=tuple(cfg.samples_in[i] for i in kept),
                samples_out=tuple(cfg.samples_out[i] for i in kept),
                reference_index=kept.index(cfg.reference_index),
            )
            np.testing.assert_allclose(
                run_stage1(prefix, psi).amplitudes, chi, atol=1e-10
            )

    @staticmethod
    def _dense_stage1(cfg, psi):
        """Stage 1 as a product of dense (system, a1..an) block matrices."""
        dim, n = cfg.dim, cfg.n_blocks
        ref = cfg.samples_in[cfg.reference_index]
        vec = psi.amplitudes
        for _ in range(n):
            vec = np.kron(vec, MINUS)
        for axis, idx in enumerate(cfg.block_sample_indices, start=1):
            w = block_unitary(cfg.samples_in[idx], ref).matrix
            # reorder the control-major block to (system, control), extend it
            # by the identity on the other ancillas, then move the control
            # from the first ancilla slot to slot ``axis`` on both sides
            w = w.reshape(2, dim, 2, dim).transpose(1, 0, 3, 2).reshape(2 * dim, 2 * dim)
            full = np.kron(w, np.eye(2 ** (n - 1))).reshape(((dim,) + (2,) * n) * 2)
            order = [0, *range(2, axis + 1), 1, *range(axis + 1, n + 1)]
            full = full.transpose(order + [n + 1 + i for i in order])
            vec = full.reshape(dim * 2**n, dim * 2**n) @ vec
        return vec

    def test_two_block_full_matrix_cross_check(self):
        rng = np.random.default_rng(SEED + 5)
        cfg, psi, _ = random_config(rng, n=1, k=3)
        got = run_stage1(cfg, psi)
        np.testing.assert_allclose(got.amplitudes, self._dense_stage1(cfg, psi), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("n_blocks", [3, 4])
    def test_middle_ancilla_axes_match_dense_blocks(self, n_blocks, n):
        # from 3 blocks on, a middle ancilla has others on both sides
        rng = np.random.default_rng(SEED + 10 * n_blocks + n)
        for _ in range(3):
            cfg, psi, _ = random_config(rng, n=n, k=n_blocks + 1)
            got = run_stage1(cfg, psi)
            np.testing.assert_allclose(
                got.amplitudes, self._dense_stage1(cfg, psi), atol=1e-12
            )

    def test_input_validation(self):
        rng = np.random.default_rng(SEED + 6)
        cfg, _, _ = random_config(rng, n=1, k=2)
        with pytest.raises(DimensionMismatch):
            run_stage1(cfg, haar_state(4, rng))


class TestKernelBits:
    @pytest.mark.parametrize("n_blocks", range(5))
    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_view_kernels_match_tensordot_kernels_bit_for_bit(self, dim, n_blocks):
        rng = np.random.default_rng(SEED + 100 * dim + n_blocks)
        u = haar_unitary(dim, rng)
        samples_in = tuple(haar_state(dim, rng) for _ in range(n_blocks + 1))
        samples_out = tuple(StateVector(u.matrix @ s.amplitudes) for s in samples_in)
        psi = haar_state(dim, rng)
        # a draw of 0 always passes; one just below 1 takes the failure branch
        draws = (None, 0.0, np.nextafter(1.0, 0.0))
        for ref in range(n_blocks + 1):
            cfg = QeConfig(samples_in, samples_out, reference_index=ref)
            for draw in draws:
                joint, pass_prob, bit, rho = tensor_run(cfg, psi, draw)
                assert np.array_equal(run_stage1(cfg, psi).amplitudes, joint)
                res = run_full(cfg, psi, rng=None if draw is None else FixedDraw(draw))
                assert res.stage2_bit == bit == (draw is not None and draw > 0.5)
                assert res.stage2_pass_prob == pass_prob
                assert np.array_equal(res.output_mixed.matrix, rho)


class TestClosedForm:
    def test_single_block_coefficients_from_reflection_algebra(self):
        """One generic block expands into exactly four merged terms.

        Coefficients follow from R(phi) x = x - 2 <phi|x> phi applied to the
        recursion: <r|psi> on (ref, |0>), 1 on (input, |1>), -<r|psi> on
        (ref, |1>), and -2<s|psi> + 2<s|r><r|psi> on (sample, |1>), where the
        last entry is the sum of the two same-label summands of the raw
        five-summand expansion.
        """
        rng = np.random.default_rng(SEED + 7)
        dim = 3
        r_amp = haar_state(dim, rng)
        s_amp = haar_state(dim, rng)
        psi = haar_state(dim, rng)
        u = haar_unitary(dim, rng)
        cfg = QeConfig(
            samples_in=(r_amp, s_amp),
            samples_out=(
                StateVector(u.matrix @ r_amp.amplitudes),
                StateVector(u.matrix @ s_amp.amplitudes),
            ),
            reference_index=0,
        )
        terms = stage1_closed_form(cfg, psi)
        r_psi = np.vdot(r_amp.amplitudes, psi.amplitudes)
        s_psi = np.vdot(s_amp.amplitudes, psi.amplitudes)
        s_r = np.vdot(s_amp.amplitudes, r_amp.amplitudes)
        expected = {
            (0, (0,)): r_psi,
            (INPUT_LABEL, (1,)): 1.0 + 0.0j,
            (0, (1,)): -r_psi,
            (1, (1,)): -2.0 * s_psi + 2.0 * s_r * r_psi,
        }
        assert len(terms) == 4
        for t in terms:
            want = expected.pop((t.system_label, t.ancilla_bits))
            np.testing.assert_allclose(t.coefficient, want, atol=1e-12)
        assert not expected

    def test_forger_plan_term_structure(self):
        """The orthogonal-challenge block collapses to four known weights.

        With reference phi2 = beta phi1 + alpha phi3 and input phi3 where
        <phi1|phi3> = 0: alpha on (ref, |0>), 1 on (input, |1>), -alpha on
        (ref, |1>) and 2 alpha beta on (phi1, |1>).
        """
        plan = make_forger_plan(0.75, 4)
        alpha, beta = 0.5, np.sqrt(3.0) / 2.0
        assert plan.alpha == pytest.approx(alpha, abs=1e-12)
        assert plan.beta == pytest.approx(beta, abs=1e-12)
        inst = qgen(QPufGenParams(qubits=2, seed=30))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
            reference_index=1,
        )
        terms = stage1_closed_form(cfg, plan.phi3)
        expected = {
            (1, (0,)): alpha,
            (INPUT_LABEL, (1,)): 1.0,
            (1, (1,)): -alpha,
            (0, (1,)): 2.0 * alpha * beta,
        }
        assert len(terms) == 4
        for t in terms:
            np.testing.assert_allclose(
                t.coefficient,
                expected[(t.system_label, t.ancilla_bits)],
                atol=1e-12,
            )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_circuit(self, seed, k):
        rng = np.random.default_rng(1000 * seed + k)
        cfg, psi, _ = random_config(rng, n=1 + seed % 2, k=k, in_span=seed % 3 == 0)
        circuit = run_stage1(cfg, psi)
        symbolic = closed_form_state(cfg, psi)
        assert pure_state_distance_bound(circuit, symbolic) <= 1e-9

    def test_orthogonal_input_keeps_only_the_all_ones_term(self):
        cfg = QeConfig(
            samples_in=(basis(4, 0), basis(4, 1)),
            samples_out=(basis(4, 2), basis(4, 3)),
            reference_index=0,
        )
        terms = stage1_closed_form(cfg, basis(4, 2))
        assert len(terms) == 1
        assert terms[0].system_label == INPUT_LABEL
        assert terms[0].ancilla_bits == (1,)
        np.testing.assert_allclose(terms[0].coefficient, 1.0)


class TestSuccessProbability:
    @pytest.mark.parametrize("mu", [0.55, 0.6, 0.75, 0.9])
    def test_forger_sandwich_oracle(self, mu):
        """p_succ follows alpha^2 (1 + 4 beta^4) squared on the plan states.

        Reduced-state columns are alpha*ref and (input - alpha*ref +
        2 alpha beta phi1); sandwiching the reference gives alpha^2 + 4
        alpha^2 beta^4, and stage 2 squares it.
        """
        plan = make_forger_plan(mu, 8, margin=0.05)
        inst = qgen(QPufGenParams(qubits=3, seed=31))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
            reference_index=1,
        )
        res = run_full(cfg, plan.phi3)
        sandwich = plan.alpha**2 * (1.0 + 4.0 * plan.beta**4)
        assert res.stage2_pass_prob == pytest.approx(sandwich, abs=1e-10)
        assert res.p_succ_stage1 == pytest.approx(sandwich**2, abs=1e-10)

    def test_frozen_values_at_three_quarters(self):
        plan = make_forger_plan(0.75, 4)
        inst = qgen(QPufGenParams(qubits=2, seed=32))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
            reference_index=1,
        )
        res = run_full(cfg, plan.phi3, target=qeval(inst, plan.phi3))
        assert res.stage2_pass_prob == pytest.approx(0.8125, abs=1e-10)
        assert res.p_succ_stage1 == pytest.approx(0.66015625, abs=1e-10)
        # fidelity floor: at least the square root of the success probability
        assert res.fidelity_vs_target >= np.sqrt(res.p_succ_stage1) - 1e-8

    @pytest.mark.parametrize("seed", range(12))
    def test_recovery_floor_random_configs(self, seed):
        rng = np.random.default_rng(40 + seed)
        cfg, psi, u = random_config(rng, n=1 + seed % 2, k=2 + seed % 2, in_span=seed % 2 == 0)
        target = StateVector(u.matrix @ psi.amplitudes)
        try:
            res = run_full(cfg, psi, target=target)
        except PostSelectionFailure:
            pytest.skip("degenerate draw with no passing branch")
        assert res.fidelity_vs_target >= np.sqrt(res.p_succ_stage1) - 1e-8


class TestPerfectRecovery:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_balanced_plan_recovers_exactly(self, n):
        plan = make_forger_plan(0.5, 2**n)
        inst = qgen(QPufGenParams(qubits=n, seed=50 + n))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
            reference_index=1,
        )
        res = run_full(cfg, plan.phi3, target=qeval(inst, plan.phi3))
        assert res.p_succ_stage1 == pytest.approx(1.0, abs=1e-9)
        assert res.fidelity_vs_target == pytest.approx(1.0, abs=1e-9)

    def test_identity_device_round_trip(self):
        plan = make_forger_plan(0.5, 4)
        inst = QPufInstance(id="id", qubits=2, unitary=UnitaryMatrix(np.eye(4)))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(plan.phi1, plan.phi2),
            reference_index=1,
        )
        res = run_full(cfg, plan.phi3, target=qeval(inst, plan.phi3))
        assert res.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)


class TestOrthogonalInput:
    def test_exact_passthrough_and_zero_success(self):
        cfg = QeConfig(
            samples_in=(basis(4, 0), basis(4, 1)),
            samples_out=(basis(4, 1), basis(4, 0)),
            reference_index=0,
        )
        psi = basis(4, 2)
        joint = run_stage1(cfg, psi)
        want = np.kron(psi.amplitudes, [0.0, 1.0])  # input (x) |1>
        np.testing.assert_allclose(joint.amplitudes, want, atol=1e-14)
        with pytest.raises(PostSelectionFailure):
            run_full(cfg, psi)


class TestStage2Modes:
    def _forger_setup(self, mu, margin=None, seed=60):
        plan = make_forger_plan(mu, 4, margin=margin)
        inst = qgen(QPufGenParams(qubits=2, seed=seed))
        cfg = QeConfig(
            samples_in=(plan.phi1, plan.phi2),
            samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
            reference_index=1,
        )
        return cfg, plan, inst

    def test_conditioning_records_bit_zero(self):
        cfg, plan, _ = self._forger_setup(0.6)
        res = run_full(cfg, plan.phi3)
        assert res.stage2_bit == 0

    def test_sampling_sees_both_branches(self):
        cfg, plan, inst = self._forger_setup(0.9, margin=0.05)
        target = qeval(inst, plan.phi3)
        bits = set()
        fidelity_by_bit = {}
        for seed in range(40):
            res = run_full(
                cfg,
                plan.phi3,
                rng=np.random.default_rng(seed),
                target=target,
            )
            bits.add(res.stage2_bit)
            fidelity_by_bit[res.stage2_bit] = res.fidelity_vs_target
        assert bits == {0, 1}  # pass prob 0.424: both outcomes show up
        assert fidelity_by_bit[0] > fidelity_by_bit[1]

    @pytest.mark.parametrize("mu", [0.5, 0.9])
    def test_sampling_draws_exactly_one_uniform(self, mu):
        cfg, plan, _ = self._forger_setup(mu, margin=0.05)
        rng = np.random.default_rng(61)
        twin = np.random.default_rng(61)
        run_full(cfg, plan.phi3, rng=rng)
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_wrong_size_target_raises_before_the_draw(self):
        cfg, plan, _ = self._forger_setup(0.9, margin=0.05)
        rng = np.random.default_rng(62)
        before = rng.bit_generator.state
        with pytest.raises(DimensionMismatch):
            run_full(cfg, plan.phi3, rng=rng, target=basis(8, 0))
        assert rng.bit_generator.state == before

    def test_no_target_reports_none(self):
        cfg, plan, _ = self._forger_setup(0.5)
        assert run_full(cfg, plan.phi3).fidelity_vs_target is None


class TestQeConfig:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            QeConfig(
                samples_in=(basis(2, 0), basis(2, 1)),
                samples_out=(basis(2, 0),),
                reference_index=0,
            )

    def test_reference_index_bounds(self):
        with pytest.raises(InvalidQuantumObject):
            QeConfig(
                samples_in=(basis(2, 0),),
                samples_out=(basis(2, 1),),
                reference_index=1,
            )

    def test_float_reference_index_rejected(self):
        # it used to pass construction and end in a bare TypeError in run_full
        with pytest.raises(InvalidQuantumObject, match="reference_index must be"):
            QeConfig(
                samples_in=(basis(2, 0), basis(2, 1)),
                samples_out=(basis(2, 1), basis(2, 0)),
                reference_index=1.0,
            )

    def test_block_bookkeeping(self):
        cfg = QeConfig(
            samples_in=(basis(2, 0), basis(2, 1), StateVector(np.array([1, 1]) / np.sqrt(2))),
            samples_out=(basis(2, 0), basis(2, 1), StateVector(np.array([1, -1]) / np.sqrt(2))),
            reference_index=1,
        )
        assert cfg.n_blocks == 2
        assert cfg.block_sample_indices == (0, 2)

    def test_joint_dimension_cap_with_many_samples(self):
        # dim * 2**(k - 1) has over 6000 digits: the message must not print it
        many = (basis(2, 0),) * 20000
        with pytest.raises(DimensionCapExceeded, match=r"2 \* 2\*\*19999"):
            QeConfig(samples_in=many, samples_out=many, reference_index=0)

    def test_joint_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("QPUF_MAX_DIM", "4")
        with pytest.raises(DimensionCapExceeded):
            QeConfig(
                samples_in=(basis(4, 0), basis(4, 1)),
                samples_out=(basis(4, 1), basis(4, 0)),
                reference_index=0,
            )
