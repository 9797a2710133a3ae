"""What the library builds without re-validating passes the checked constructors.

States, unitaries, density matrices and subspace knowledge that the library
makes from checked inputs (a unitary applied, a Haar QR, a normalisation, a
reduced state) skip their ``__post_init__`` through ``numerics._unchecked``.
Each test here samples one such producer at D in {2, 4, 8, 64} and rebuilds
its output through the public constructor, which must accept it.  The first
class pins what the helper itself keeps: read-only complex128 copies with the
constructor's memory layout.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from qpuflab import adversaries, games, numerics, verify
from qpuflab import (
    DensityMatrix,
    EpsilonDisturbedChannel,
    ForgerPlan,
    GameConfig,
    PreconditionViolation,
    PrivilegedReadout,
    QeConfig,
    QeForger,
    QPufGenParams,
    SealedOracle,
    StateVector,
    SubspaceAdversary,
    SubspaceKnowledge,
    TestConfig,
    TomographyAdversary,
    UnitaryMatrix,
    apply,
    channel_apply,
    haar_state,
    haar_unitary,
    make_forger_plan,
    orthogonal_challenge_check,
    qeval,
    qgen,
    recovery_floor_check,
    run_full,
    run_stage1,
)

SEED = 31337
DIMS = [2, 4, 8, 64]


def checked(obj):
    """Rebuild ``obj`` through its public constructor; return ``obj``."""
    if isinstance(obj, StateVector):
        arr = obj.amplitudes
        StateVector(arr)
    elif isinstance(obj, (DensityMatrix, UnitaryMatrix)):
        arr = obj.matrix
        type(obj)(arr)
    else:
        raise TypeError(type(obj))
    assert arr.dtype == np.complex128 and not arr.flags.writeable
    return obj


def subspace_rows(dim):
    """A spanning subspace chunk's query rows, ``e_0 .. e_{D-1}``."""
    return adversaries._SubspaceChunk(dim).inputs(dim)[0]


def device_oracle(dim, seed):
    inst = qgen(QPufGenParams(qubits=dim.bit_length() - 1, seed=seed))
    return inst, SealedOracle(lambda psi: qeval(inst, psi))


class TestUncheckedHelper:
    def test_arrays_become_read_only_complex128_copies(self):
        src = np.array([0.6, 0.8])
        psi = numerics._unchecked(StateVector, amplitudes=src)
        assert psi.amplitudes.dtype == np.complex128
        assert not psi.amplitudes.flags.writeable
        assert not np.shares_memory(psi.amplitudes, src)
        src[0] = 5.0
        assert psi.amplitudes.tolist() == [0.6, 0.8]

    def test_same_layout_as_the_checked_constructor(self):
        u = haar_unitary(8, np.random.default_rng(SEED)).matrix
        for src in (u, u.T):  # C- and Fortran-ordered
            fast = numerics._unchecked(UnitaryMatrix, matrix=src).matrix
            slow = UnitaryMatrix(src).matrix
            assert fast.strides == slow.strides
            assert fast.tobytes(order="A") == slow.tobytes(order="A")

    def test_post_init_is_not_run(self, monkeypatch):
        def refuse(self):
            raise AssertionError("__post_init__ ran")

        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        rho = numerics._unchecked(DensityMatrix, matrix=np.eye(2) / 2)
        assert rho.dim == 2

    def test_other_fields_are_kept_as_given(self):
        basis = (numerics._unchecked(StateVector, amplitudes=np.array([1.0, 0.0])),)
        kn = numerics._unchecked(
            SubspaceKnowledge, dim=2, basis_in=basis, basis_out=basis
        )
        assert kn.dim == 2 and kn.basis_in is basis and kn.d == 1


@pytest.mark.parametrize("dim", DIMS)
class TestNumerics:
    def test_haar_draws_and_apply(self, dim):
        rng = np.random.default_rng(SEED + dim)
        for _ in range(3):
            u = checked(haar_unitary(dim, rng))
            psi = checked(haar_state(dim, rng))
            checked(apply(u, psi))

    def test_from_state(self, dim):
        rng = np.random.default_rng(SEED + 10 + dim)
        row = subspace_rows(dim)[dim - 1]
        for psi in (haar_state(dim, rng), adversaries._basis_state(dim, dim - 1)):
            checked(DensityMatrix.from_state(psi))
        checked(DensityMatrix.from_state(StateVector(row)))


@pytest.mark.parametrize("dim", DIMS)
class TestGames:
    def test_lazy_device_responses(self, dim):
        # new directions from the block, then a basis state, a repeated query
        # and a subspace chunk's query row e_1; budget 4 covers the three fresh
        # states and the two basis states, as a game's budget covers its calls
        rng = np.random.default_rng(SEED + 40 + dim)
        cfg = GameConfig(
            mode="qsel",
            gen=QPufGenParams(qubits=dim.bit_length() - 1, seed=0),
            test=TestConfig(kind="ideal", delta=0.5),
            learning_budget=4,
            seed=SEED,
        )
        (device,) = games._devices(cfg, [rng])
        states = [haar_state(dim, rng) for _ in range(min(dim, 3))]
        e1 = StateVector(subspace_rows(dim)[1])
        for psi in states + [adversaries._basis_state(dim, 0), states[0], e1]:
            checked(device(psi))


@pytest.mark.parametrize("dim", DIMS)
class TestQpuf:
    @pytest.mark.parametrize("epsilon", [0, 0.3, 1])
    def test_channel_apply(self, dim, epsilon):
        rng = np.random.default_rng(SEED + 20 + dim)
        channel = EpsilonDisturbedChannel(epsilon, haar_unitary(dim, rng))
        a, b = haar_state(dim, rng), haar_state(dim, rng)
        mixed = DensityMatrix(
            0.3 * DensityMatrix.from_state(a).matrix
            + 0.7 * DensityMatrix.from_state(b).matrix
        )
        for rho in (DensityMatrix.from_state(a), mixed):
            checked(channel_apply(channel, rho))


def random_setup(dim, k, rng):
    u = haar_unitary(dim, rng)
    samples_in = tuple(haar_state(dim, rng) for _ in range(k))
    samples_out = tuple(apply(u, s) for s in samples_in)
    cfg = QeConfig(samples_in, samples_out, reference_index=int(rng.integers(k)))
    return cfg, haar_state(dim, rng)


@pytest.mark.parametrize("dim", DIMS)
class TestEmulator:
    def test_stage1_joint_state(self, dim):
        rng = np.random.default_rng(SEED + 30 + dim)
        for k in (1, 2, 3):
            cfg, psi = random_setup(dim, k, rng)
            checked(run_stage1(cfg, psi))

    @pytest.mark.parametrize(
        "draw, bit", [(None, 0), (0.0, 0), (1.0, 1)],
        ids=["conditioned", "sampled-pass", "sampled-fail"],
    )
    def test_run_full_output(self, dim, draw, bit):
        rng = np.random.default_rng(SEED + 40 + dim)
        for k in (2, 3):
            cfg, psi = random_setup(dim, k, rng)
            # a sampled run's one uniform, fixed: 0.0 always passes, 1.0 fails
            stage2 = None if draw is None else SimpleNamespace(random=lambda: draw)
            res = run_full(cfg, psi, rng=stage2)
            assert res.stage2_bit == bit
            checked(res.output_mixed)


@pytest.mark.parametrize("dim", DIMS)
class TestAdversaries:
    def test_basis_states(self, dim):
        for i in (0, dim // 2, dim - 1):
            checked(adversaries._basis_state(dim, i))

    def test_subspace_chunk_rows(self, dim):
        # the raw query rows a subspace chunk learns on: e_0 .. e_{d-1}, no
        # challenge; each passes the constructor and is the basis state
        for d in sorted({0, 1, dim // 2, dim}):
            rows, psi = adversaries._SubspaceChunk(d).inputs(dim)
            assert psi is None and rows.shape == (d, dim) and rows.dtype == np.complex128
            for i, row in enumerate(rows):
                assert StateVector(row).amplitudes.tobytes() == (
                    adversaries._basis_state(dim, i).amplitudes.tobytes()
                )

    @pytest.mark.parametrize("margin", [None, 0.1])
    @pytest.mark.parametrize("mu", [0, 0.3, 0.5, 0.75, 7 / 8])
    def test_forger_plan(self, dim, mu, margin):
        # every state and the plan pass the public constructors, where the
        # margin (default 1/(2D)) allows the mu at all
        if mu > 1.0 - (0.5 / dim if margin is None else margin):
            with pytest.raises(PreconditionViolation):
                make_forger_plan(mu, dim, margin)
            return
        plan = make_forger_plan(mu, dim, margin)
        states = [checked(s) for s in (plan.phi1, plan.phi2, plan.phi3)]
        rebuilt = ForgerPlan(plan.mu, *states, plan.alpha, plan.beta)
        assert (rebuilt.mu, rebuilt.alpha, rebuilt.beta) == (mu, plan.alpha, plan.beta)
        if margin is None:  # the forger chunk's raw rows are this plan's states
            rows, psi = adversaries._ForgerChunk(mu).inputs(dim)
            assert rows.tobytes() == np.array([s.amplitudes for s in states[:2]]).tobytes()
            assert psi.tobytes() == states[2].amplitudes.tobytes()

    def test_subspace_knowledge_and_guess(self, dim):
        rng = np.random.default_rng(SEED + 50 + dim)
        _, oracle = device_oracle(dim, SEED + dim)
        for d in sorted({0, 1, dim // 2, dim - 1, dim}):
            adv = SubspaceAdversary(d)
            adv.learn(oracle, dim, d, rng)
            kn = adv.knowledge
            SubspaceKnowledge(dim=kn.dim, basis_in=kn.basis_in, basis_out=kn.basis_out)
            for b in kn.basis_in + kn.basis_out:
                checked(b)
            for _ in range(3):
                checked(adv.respond(haar_state(dim, rng), rng))

    def test_tomography_reconstruction(self, dim):
        rng = np.random.default_rng(SEED + 60 + dim)
        inst, oracle = device_oracle(dim, SEED + 1 + dim)
        adv = TomographyAdversary(PrivilegedReadout())
        adv.learn(oracle, dim, dim, rng)
        assert adv.reconstructed.matrix.tobytes() == inst.unitary.matrix.tobytes()
        checked(adv.reconstructed)
        checked(adv.respond(haar_state(dim, rng), rng))

    @pytest.mark.parametrize("mu", [0.5, 0.75])
    def test_forger_guess(self, dim, mu):
        rng = np.random.default_rng(SEED + 70 + dim)
        _, oracle = device_oracle(dim, SEED + 2 + dim)
        for _ in range(4):
            adv = QeForger(mu)
            adv.learn(oracle, dim, 2, rng)
            checked(adv.respond(adv.choose_challenge(rng), rng))


class TestVerifyAudits:
    """The emulation audits hand the circuit kernels raw rows: every sample,
    image, input, target and factored device must pass the public
    constructors."""

    @staticmethod
    def _at_size(monkeypatch, n):
        # every trial of an emulation audit on a register of n qubits
        trials_of = verify._qe_trials
        monkeypatch.setattr(
            verify,
            "_qe_trials",
            lambda trials, rng, _, k, draw: trials_of(trials, rng, (n,), k, draw),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_emulator_audit_samples_inputs_and_targets(self, n, monkeypatch):
        self._at_size(monkeypatch, n)
        seen, run = [], verify._run

        def checked_run(samples, images, ref, psi, target):
            states = [StateVector(a) for a in (*samples, *images, psi, target)]
            k = len(samples)
            QeConfig(states[:k], states[k : 2 * k], ref)
            seen.append(states[-1].dim)
            return run(samples, images, ref, psi, target=target)

        monkeypatch.setattr(verify, "_run", checked_run)
        recovery_floor_check(12, np.random.default_rng(SEED + 80 + n))
        assert seen == [2**n] * 12

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_emulator_audit_devices(self, n):
        # the stacked QR's raw unitaries, one per trial
        rng = np.random.default_rng(SEED + 85 + n)
        made = verify._qe_trials(12, rng, (n,), (2, 3), verify._setup_input)
        devices = verify._haar_devices([ginibre for _, _, ginibre, _ in made])
        assert len(devices) == 12
        for u in devices:
            UnitaryMatrix(u)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_orthogonal_challenge_inputs(self, n, monkeypatch):
        self._at_size(monkeypatch, n)
        seen, stage2 = [], verify._through_stage2

        def checked_stage2(samples, ref, psi):
            states = [StateVector(s) for s in samples]
            QeConfig(states, states, ref)  # stages 1 and 2 read no outputs
            seen.append(StateVector(psi).dim)
            return stage2(samples, ref, psi)

        monkeypatch.setattr(verify, "_through_stage2", checked_stage2)
        assert orthogonal_challenge_check(6, np.random.default_rng(SEED + 90 + n)).passed
        assert seen == [2**n] * 6
