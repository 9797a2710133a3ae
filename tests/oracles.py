"""Test-only oracles: per-game and per-trial loops that the array paths must
match bit for bit, in report and generator state.

pytest does not collect this module; tests import it by name.
"""

import numpy as np

from qpuflab import (
    CheckReport,
    DensityMatrix,
    DimensionMismatch,
    EpsilonDisturbedChannel,
    InvalidQuantumObject,
    PostSelectionFailure,
    QeConfig,
    QeForger,
    StateVector,
    SubspaceAdversary,
    TestConfig,
    TestOutcome,
    apply,
    check_collision,
    expected_acceptance,
    fidelity_pure,
    haar_state,
    haar_unitary,
    pure_state_distance_bound,
    testers,
)
from qpuflab.emulator import _final_state, _run, _through_stage2, closed_form_state
from qpuflab.emulator import run_full, run_stage1
from qpuflab.numerics import (
    _complement_vector,
    _ginibre,
    _haar_qr,
    _haar_vector,
    _unchecked,
    span_projector,
)
from qpuflab.verify import _check_inputs, _log_margin, _report


def device_block(dim, k, rng):
    """One game's ``(D, k)`` device block from its own stream alone: the
    stream's first draw seeds a generator, ``_ginibre`` draws its real and its
    imaginary parts in two calls, and ``_haar_qr`` factors that one matrix."""
    seed = int(rng.integers(0, 2**63))
    return _haar_qr(_ginibre(dim, np.random.default_rng(seed), k)[np.newaxis])[0]


class SubspaceOracle(SubspaceAdversary):
    """``SubspaceAdversary`` whose guess is one game's loop over the learned
    basis, with ``np.vdot`` overlaps, instead of the library's chunk kernel.

    Being a subclass, it has no chunk form, so games play it through
    ``games._play``.
    """

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        kn = self.knowledge
        if kn is None:
            raise InvalidQuantumObject("respond called before learn")
        if challenge.dim != kn.dim:
            raise DimensionMismatch(f"challenge dim {challenge.dim} != space {kn.dim}")
        psi = challenge.amplitudes
        guess = np.zeros(kn.dim, dtype=np.complex128)
        in_weight = 0.0
        for b_in, b_out in zip(kn.basis_in, kn.basis_out):
            c = np.vdot(b_in.amplitudes, psi)
            guess += c * b_out.amplitudes
            in_weight += float(abs(c) ** 2)
        rest = 1.0 - min(in_weight, 1.0)
        # a spanning basis leaves no complement to draw from; a challenge
        # short of unit norm by round-off must not wait for one
        if rest > 1e-12 and kn.d < kn.dim:
            images = [b.amplitudes for b in kn.basis_out]
            guess += np.sqrt(rest) * _complement_vector(images, kn.dim, rng)
        return _unchecked(StateVector, amplitudes=guess / np.linalg.norm(guess))


class ForgerOracle(QeForger):
    """``QeForger`` whose guess is one game's principal eigenvector, written
    out for one run instead of the library's stack rule: the top eigenvector
    ``u`` of the ``(m, m)`` Gram matrix ``F^dag F`` of the run's final state
    ``F``, mapped to ``F u`` (``principal_state``).  The run takes the plan's
    queries and the responses as rows, ``phi2`` the reference, and is recorded
    as ``last_result``; ``F`` is that run's final state, recomputed from its
    stage-2 bit with no second draw.

    Being a subclass, it has no chunk form, so games play it through
    ``games._play``.
    """

    last_result = None

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        if self.plan is None or self._responses is None:
            raise InvalidQuantumObject("respond called before learn")
        queries = np.array([self.plan.phi1.amplitudes, self.plan.phi2.amplitudes])
        psi = challenge.amplitudes
        self.last_result = _run(queries, self._responses, 1, psi, rng)
        outputs = None if self.last_result.stage2_bit else self._responses
        final = _final_state(queries, 1, _through_stage2(queries, 1, psi), outputs)
        return _unchecked(StateVector, amplitudes=principal_state(final))


def principal_state(final):
    """One ``(D, m)`` final state's guess: ``F u`` for the top eigenvector ``u``
    of ``F^dag F``, its largest entry turned positive by dividing numpy
    scalars, then normalised."""
    vec = final @ np.linalg.eigh(final.conj().T @ final)[1][:, -1]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[pivot].conj() / abs(vec[pivot]))
    return vec / np.linalg.norm(vec)


def dxd_principal_state(rho):
    """The forger's guess by its former rule, kept as an independent check:
    the principal eigenvector of the ``(D, D)`` output ``rho``, from one
    ``np.linalg.eigh`` of the whole matrix."""
    return np.linalg.eigh(rho)[1][:, -1]


def run_test(cfg, target, guess, rng):
    """A swap test's verdict, one ``rng.random`` piece of at most
    ``testers._DRAW_CHUNK`` pairs at a time, with its own pass rule."""
    f = fidelity_pure(target, guess)
    c = cfg.pairs
    p = expected_acceptance(f, 1)
    passes = 0
    for start in range(0, c, testers._DRAW_CHUNK):
        draws = rng.random(min(testers._DRAW_CHUNK, c - start))
        passes += int(np.count_nonzero(draws < p))
    return TestOutcome(passes == c, passes, c, f)


def swap_statistics_check(trials, rng):
    """``verify.swap_statistics_check`` as one ``run_test`` per trial and cell."""
    _check_inputs(trials, 1)
    margins: list[float] = []
    details: list[str] = []
    for f in (0.0, 0.5, 1.0):
        target = StateVector(np.array([1.0, 0.0], dtype=np.complex128))
        guess = StateVector(
            np.array([np.sqrt(f), np.sqrt(1.0 - f)], dtype=np.complex128)
        )
        for pairs in (1, 5, 20):
            cfg = TestConfig(kind="swap", kappa1=pairs, kappa2=pairs)
            hits = sum(
                run_test(cfg, target, guess, rng).accepted for _ in range(trials)
            )
            rate = hits / trials
            expect = expected_acceptance(f, pairs)
            if f == 1.0:
                margins.append(0.0 if rate == 1.0 else -1.0)
            else:
                se = float(np.sqrt(expect * (1.0 - expect) / trials))
                margins.append(3.0 * se + 1e-12 - abs(rate - expect))
            details.append(f"F={f} c={pairs} rate={rate:.4f} expect={expect:.4f}")
    return _report("swap-battery-statistics", margins, detail="; ".join(details))


def negative_control_check(trials, rng):
    """``verify.negative_control_check`` as one ``check_collision`` per trial."""
    _check_inputs(trials, 1)
    dim = 4
    channel = EpsilonDisturbedChannel(epsilon=0.5, unitary=haar_unitary(dim, rng))
    margins: list[float] = []
    for _ in range(trials):
        a = _haar_vector(dim, rng)
        b = _complement_vector([a], dim, rng)
        rho = DensityMatrix.from_state(StateVector(a))
        sigma = DensityMatrix.from_state(StateVector(b))
        ok = check_collision(channel, rho, sigma, delta_c=0.9)
        margins.append(0.0 if ok else -1.0)
    return _report(
        "negative-control-collision",
        margins,
        detail="expected to fail: eps=0.5 device audited against delta_c=0.9",
    )


class QuarterUniforms:
    """A generator stand-in whose uniforms are those of ``default_rng(seed)``
    rounded down to quarters, so that swap draws hit the pass probability 1/2
    of an orthogonal guess exactly; a test passes only strictly below it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def random(self, size=None):
        return np.floor(4.0 * self._rng.random(size)) / 4.0


class AuditDraws:
    """A generator stand-in with only the draws of the disturbance and
    concavity audits, each that of ``default_rng(seed)``, so that an audit
    calling ``dirichlet`` (or any other draw) fails on it."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.bit_generator = rng.bit_generator
        self.integers, self.standard_normal = rng.integers, rng.standard_normal
        self.standard_exponential = rng.standard_exponential
        self.uniform, self.random = rng.uniform, rng.random


# ---------------------------------------------------------------------------
# the emulation audits, one trial at a time: each draws its config with
# ``rng.choice``, ``haar_unitary`` and ``haar_state``, then runs the circuit


def _random_qe_config(rng, n_choices, k_choices):
    """Random device + sample set + reference; returns (cfg, device)."""
    n = int(rng.choice(n_choices))
    k = int(rng.choice(k_choices))
    dim = 2**n
    u = haar_unitary(dim, rng)
    samples_in = tuple(haar_state(dim, rng) for _ in range(k))
    samples_out = tuple(apply(u, s) for s in samples_in)
    ref = int(rng.integers(k))
    cfg = QeConfig(
        samples_in=samples_in, samples_out=samples_out, reference_index=ref
    )
    return cfg, u


def _random_qe_setup(rng, n_choices=(1, 2), k_choices=(2, 3)):
    """Random device + sample set + input; returns (cfg, psi, target)."""
    cfg, u = _random_qe_config(rng, n_choices, k_choices)
    k = len(cfg.samples_in)
    if rng.random() < 0.5:
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vec = sum(c * s.amplitudes for c, s in zip(coeffs, cfg.samples_in))
        psi = _unchecked(StateVector, amplitudes=vec / np.linalg.norm(vec))
    else:
        psi = haar_state(cfg.dim, rng)
    target = apply(u, psi)
    return cfg, psi, target


def recovery_floor_check(trials, rng):
    """``verify.recovery_floor_check`` one trial at a time."""
    _check_inputs(trials)
    margins: list[float] = []
    for _ in range(trials):
        cfg, psi, target = _random_qe_setup(rng)
        try:
            res = run_full(cfg, psi, target=target)
        except PostSelectionFailure:
            continue  # nothing to condition on; the floor is vacuous
        margins.append(res.fidelity_vs_target - np.sqrt(res.p_succ_stage1) + 1e-8)
    return _report("recovery-fidelity-floor", margins)


def closed_form_check(trials, rng):
    """``verify.closed_form_check`` one trial at a time."""
    _check_inputs(trials)
    margins: list[float] = []
    for _ in range(trials):
        cfg, psi, _ = _random_qe_setup(rng, k_choices=(2, 3, 4))
        circuit = run_stage1(cfg, psi)
        symbolic = closed_form_state(cfg, psi)
        margins.append(1e-9 - pure_state_distance_bound(circuit, symbolic))
    return _report("stage1-closed-form", margins)


def orthogonal_challenge_check(trials, rng):
    """``verify.orthogonal_challenge_check`` one trial at a time."""
    _check_inputs(trials)
    margins: list[float] = []
    for _ in range(trials):
        # at most 3 samples in D >= 4 leave a non-trivial complement
        cfg, _ = _random_qe_config(rng, (2, 3), (2, 3))
        # the samples are not orthogonal: draw against their span's orthonormal basis
        v = _complement_vector(span_projector(cfg.samples_in).basis, cfg.dim, rng)
        psi = _unchecked(StateVector, amplitudes=v)
        try:
            res = run_full(cfg, psi)
        except PostSelectionFailure as exc:
            margins.append(_log_margin(exc.pass_prob**2))
        else:
            margins.append(min(1e-12 - res.p_succ_stage1, -1.0))
    return _report("orthogonal-challenge-rejection", margins)


# ---------------------------------------------------------------------------
# the disturbance and concavity audits, one trial at a time on validated
# objects, with the 2-d kernels that the stacked ones replaced


def fidelity_2d(rho, sigma):
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(_drop_round_off_2d(w))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    eigs = _drop_round_off_2d(np.linalg.eigvalsh(inner))
    return float(np.sum(np.sqrt(eigs)) ** 2)


def _drop_round_off_2d(w):
    return np.where(w > 1e-12 * w[-1], w, 0.0)


def sqrt_fidelity_2d(rho, sigma):
    return float(np.sqrt(fidelity_2d(rho, sigma)))


def trace_distance_2d(rho, sigma):
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))


def channel_apply_2d(channel, rho):
    u = channel.unitary.matrix
    ideal = u @ rho.matrix @ u.conj().T
    eps = channel.epsilon
    mixed = np.eye(rho.dim) / rho.dim
    return DensityMatrix((1.0 - eps) * ideal + eps * mixed)


def _loop_report(name, margins, detail=""):
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


def random_mixed(dim, rank, rng):
    """A mixture of ``rank`` Haar states at Dirichlet weights, summed from 0."""
    weights = rng.dirichlet(np.ones(rank))
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        s = haar_state(dim, rng).amplitudes
        acc += w * np.outer(s, s.conj())
    return DensityMatrix(acc)


def random_pair(dim, rng, mixed):
    if mixed:
        rank = int(rng.integers(2, dim + 1))
        return random_mixed(dim, rank, rng), random_mixed(dim, rank, rng)
    a = haar_state(dim, rng)
    b = haar_state(dim, rng)
    return DensityMatrix.from_state(a), DensityMatrix.from_state(b)


def _both_channels(epsilon, dim, rng):
    u = haar_unitary(dim, rng)
    strength = float(rng.uniform(0.2, 1.0))
    return (
        EpsilonDisturbedChannel(epsilon, u),
        EpsilonDisturbedChannel(epsilon * strength, u),
    )


def distance_contraction_check(epsilon, dim, trials, rng):
    """``verify.distance_contraction_check`` one trial at a time."""
    margins = []
    for t in range(trials):
        rho, sigma = random_pair(dim, rng, mixed=bool(t % 2))
        d_in = trace_distance_2d(rho, sigma)
        for channel in _both_channels(epsilon, dim, rng):
            d_out = trace_distance_2d(
                channel_apply_2d(channel, rho), channel_apply_2d(channel, sigma)
            )
            gap = d_in - d_out
            margins.append(gap + 1e-8)  # contractivity
            margins.append(epsilon * d_in - gap + 1e-8)  # bounded shrinkage
            exact = (1.0 - channel.epsilon) * d_in
            margins.append(1e-8 - abs(d_out - exact))  # exact law
    return _loop_report(
        "distance-contraction", margins, detail=f"eps={epsilon} D={dim}"
    )


def fidelity_disturbance_check(epsilon, dim, trials, rng):
    """``verify.fidelity_disturbance_check`` one trial at a time."""
    margins = []
    for t in range(trials):
        mixed = bool(t % 2)
        rho, sigma = random_pair(dim, rng, mixed=mixed)
        f_in = fidelity_2d(rho, sigma)
        g_in = float(np.sqrt(f_in))  # what sqrt_fidelity_mixed returns
        d_in = trace_distance_2d(rho, sigma)
        for channel in _both_channels(epsilon, dim, rng):
            out_r = channel_apply_2d(channel, rho)
            out_s = channel_apply_2d(channel, sigma)
            f_out = fidelity_2d(out_r, out_s)
            g_out = float(np.sqrt(f_out))
            margins.append(f_out - f_in + 1e-8)  # monotone, squared
            margins.append(g_out - g_in + 1e-8)  # monotone, square root
            margins.append(g_out - (1.0 - epsilon) * g_in + 1e-8)  # concavity
            if not mixed:
                bound = 2.0 * channel.epsilon * d_in
                margins.append(bound - (f_out - f_in) + 1e-8)
    return _loop_report(
        "fidelity-disturbance", margins, detail=f"eps={epsilon} D={dim}"
    )


def joint_concavity_check(dim, trials, rng):
    """``verify.joint_concavity_check`` one trial at a time: each part draws a
    whole pair and keeps one member."""
    margins = []
    for _ in range(trials):
        parts = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(parts))
        rhos = [random_pair(dim, rng, mixed=bool(k % 2))[0] for k in range(parts)]
        sigmas = [random_pair(dim, rng, mixed=bool(k % 2))[1] for k in range(parts)]
        mix_r = DensityMatrix(
            sum(w * r.matrix for w, r in zip(weights, rhos))
        )
        mix_s = DensityMatrix(
            sum(w * s.matrix for w, s in zip(weights, sigmas))
        )
        lhs = sqrt_fidelity_2d(mix_r, mix_s)
        rhs = float(
            sum(
                w * sqrt_fidelity_2d(r, s)
                for w, r, s in zip(weights, rhos, sigmas)
            )
        )
        margins.append(lhs - rhs + 1e-8)
    return _loop_report("sqrt-fidelity-joint-concavity", margins, detail=f"D={dim}")
