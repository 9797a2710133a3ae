"""Monte Carlo and exact audits of the laboratory's quantitative claims.

Each check returns a :class:`CheckReport`; ``run_all_checks`` bundles the
standard battery at CLI-friendly trial counts.  ``worst_margin`` is the
smallest slack seen across all trials of a check (negative means at least
one violation), so a barely-passing check is visible as a small positive
margin rather than a bare boolean.

Every check validates its parameters on entry, before its first draw.

The disturbance and concavity audits (``distance_contraction_check``,
``fidelity_disturbance_check``, ``joint_concavity_check``) then work on
plain arrays, a bounded chunk of trials at a time: they draw every trial's
inputs in stream order, then evaluate the chunk as ``(T, D, D)`` stacks with
one ``eigvalsh``/``eigh``/matmul per stack.  LAPACK and BLAS treat each
matrix of a stack on its own, so every margin is bit for bit the one-trial
value.  What they build from Haar draws, mixtures and the epsilon-channel is
a density matrix by construction and is not validated again; tests check
that on sampled draws.

The negative control deliberately audits a false claim (a heavily disturbed
device sold as strongly collision-resistant) and is expected to FAIL; it
exists to prove the harness can reject, and is only included on request.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .emulator import QeConfig, run_full, run_stage1, closed_form_state
from .errors import InvalidQuantumObject, PostSelectionFailure
# fidelity_mixed, trace_distance and channel_apply are not called here; the
# traced benchmark patches them at these names, so they stay importable
from .numerics import (  # noqa: F401
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    _as_int,
    _check_dim,
    _check_seed,
    _complement_vector,
    _disturb_stack,
    _fidelity_stack,
    _ginibre,
    _haar_qr,
    _haar_vector,
    _trace_distance_stack,
    _unchecked,
    apply,
    fidelity_mixed,
    haar_state,
    haar_unitary,
    span_projector,
    trace_distance,
)
from .qpuf import EpsilonDisturbedChannel, channel_apply, check_collision  # noqa: F401
from .testers import TestConfig, expected_acceptance, run_test


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one audit: pass/fail plus how close it came."""

    name: str
    trials: int
    violations: int
    worst_margin: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _report(name: str, margins: list[float], detail: str = "") -> CheckReport:
    return _report_chunks(name, [np.array(margins, dtype=np.float64)], detail)


def _check_inputs(
    trials: int,
    least_trials: int = 0,
    dim: int = 2,
    least_dim: int = 2,
    epsilon: float = 0.0,
) -> None:
    """Raise before any draw unless a check's parameters are in range.

    Each test is written so that NaN fails it.  The disturbance and
    concavity audits need ``dim >= 2``: their mixed pairs have rank 2 or more.
    """
    if not _as_int(trials, "trials") >= least_trials:
        raise InvalidQuantumObject(f"trials={trials} is below {least_trials}")
    if not 0.0 <= epsilon <= 1.0:
        raise InvalidQuantumObject(f"epsilon={epsilon} outside [0, 1]")
    _check_dim(dim, least_dim)


def _report_chunks(name: str, chunks, detail: str = "") -> CheckReport:
    """Report over margin arrays, one per chunk of trials, none kept."""
    trials = violations = 0
    worst = float("inf")
    for margins in chunks:
        trials += margins.size
        violations += int(np.count_nonzero(margins < 0.0))
        if margins.size:
            worst = min(worst, float(margins.min()))
    return CheckReport(
        name=name,
        trials=trials,
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Haar-average subspace weight


def haar_subspace_weight_check(
    d: int, dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Mean squared overlap of a Haar state with a d-dim subspace is d/D.

    Verified against the computational-basis projector (Haar invariance makes
    the subspace choice irrelevant) within three empirical standard errors,
    which takes at least two trials.
    """
    _check_inputs(trials, 2, dim, least_dim=1)
    if not 0 <= _as_int(d, "subspace dimension") <= dim:
        raise InvalidQuantumObject(f"subspace dimension {d} outside 0..{dim}")
    raw = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.sum(np.abs(raw[:, :d]) ** 2, axis=1)
    mean = float(np.mean(weights))
    stderr = float(np.std(weights, ddof=1) / np.sqrt(trials))
    allowance = 3.0 * stderr + 1e-12
    margin = allowance - abs(mean - d / dim)
    return CheckReport(
        name="haar-subspace-weight",
        trials=trials,
        violations=int(margin < 0.0),
        worst_margin=margin,
        passed=margin >= 0.0,
        detail=f"d={d} D={dim} mean={mean:.6f} expected={d / dim:.6f} 3se={allowance:.2e}",
    )


# ---------------------------------------------------------------------------
# emulation circuit laws


def _random_qe_config(
    rng: np.random.Generator, n_choices: tuple[int, ...], k_choices: tuple[int, ...]
) -> tuple[QeConfig, UnitaryMatrix]:
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


def _random_qe_setup(
    rng: np.random.Generator,
    n_choices: tuple[int, ...] = (1, 2),
    k_choices: tuple[int, ...] = (2, 3),
) -> tuple[QeConfig, StateVector, StateVector]:
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


def recovery_floor_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Post-selected output fidelity is at least sqrt(p_succ_stage1).

    Audited over random devices, sample sets (balanced between in-span and
    generic inputs), reference choices, and register sizes.
    """
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


def pure_state_distance_bound(a: StateVector, b: StateVector) -> float:
    """Phase-aligned Euclidean distance: an upper bound on trace distance.

    ``sqrt(1 - F)`` cannot certify sub-1e-9 agreement in double precision
    (the fidelity saturates at ~1e-16 from 1); the aligned vector norm keeps
    full resolution near zero and dominates the trace distance, so a small
    value is a rigorous certificate.
    """
    av = a.amplitudes
    bv = b.amplitudes
    ov = np.vdot(av, bv)
    if abs(ov) > 0.0:
        bv = bv * (ov.conjugate() / abs(ov))
    return float(np.linalg.norm(av - bv))


def closed_form_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Symbolic stage-1 expansion matches the gate-by-gate circuit.

    Trace distance between the two joint pure states must stay below 1e-9
    (certified through the phase-aligned Euclidean upper bound).
    """
    _check_inputs(trials)
    margins: list[float] = []
    for _ in range(trials):
        cfg, psi, _ = _random_qe_setup(rng, k_choices=(2, 3, 4))
        circuit = run_stage1(cfg, psi)
        symbolic = closed_form_state(cfg, psi)
        margins.append(1e-9 - pure_state_distance_bound(circuit, symbolic))
    return _report("stage1-closed-form", margins)


def orthogonal_challenge_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """An input orthogonal to every sample never passes stage 2.

    The blocks act trivially on such an input (it is a -1 eigenvector of
    every reflection's argument), so the success weight is exactly zero:
    ``p_succ_stage1 <= 1e-12`` and post-selection must raise.  Margins are in
    decades, ``-12 - log10(pass_prob**2)``, so a drift of ``pass_prob`` shows.
    """
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


def _log_margin(p2: float) -> float:
    """``-12 - log10(p2)``: negative iff ``p2 > 1e-12``, also within an ulp
    of it; a ``p2`` under 1e-300, 0 included, counts as 1e-300."""
    margin = -12.0 - math.log10(max(p2, 1e-300))
    return min(margin, -1e-300) if p2 > 1e-12 else max(margin, 0.0)


# ---------------------------------------------------------------------------
# disturbed-device laws


#: complex entries in one stack of trial inputs: a chunk of a disturbance
#: audit holds ``_STACK_CHUNK // D**2`` trials, and its working arrays are a
#: few such stacks, so memory stays bounded at any trial count
_STACK_CHUNK = 2**14


def _chunks(dim: int, trials: int) -> list[range]:
    size = max(1, _STACK_CHUNK // dim**2)
    return [range(t, min(t + size, trials)) for t in range(0, trials, size)]


def _random_mixed(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    weights = rng.dirichlet(np.ones(rank))
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        s = _haar_vector(dim, rng)
        acc += w * np.outer(s, s.conj())
    return acc


def _random_pair(
    dim: int, rng: np.random.Generator, mixed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Two density matrices, as plain arrays."""
    if mixed:
        rank = int(rng.integers(2, dim + 1))
        return _random_mixed(dim, rank, rng), _random_mixed(dim, rank, rng)
    a = _haar_vector(dim, rng)
    b = _haar_vector(dim, rng)
    return np.outer(a, a.conj()), np.outer(b, b.conj())


def _disturbed_pairs(
    epsilon: float, dim: int, trials: range, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Inputs and outputs of a chunk of disturbance trials.

    Each trial draws its input pair (mixed on odd trials), then the Ginibre
    matrix of a Haar unitary and a depolarizing strength ``s`` from
    [0.2, 1): the members at ``epsilon`` and ``epsilon * s`` share that
    unitary.  One stacked QR factors the chunk's unitaries.  Returns ``rho,
    sigma`` as ``(T, D, D)``, the members' epsilons as ``(T, 2)`` and both
    outputs as ``(T, 2, D, D)``.
    """
    rho = np.empty((len(trials), dim, dim), dtype=np.complex128)
    sigma = np.empty_like(rho)
    ginibre = np.empty_like(rho)
    eps = np.empty((len(trials), 2))
    for k, t in enumerate(trials):
        rho[k], sigma[k] = _random_pair(dim, rng, mixed=bool(t % 2))
        ginibre[k] = _ginibre(dim, rng)
        eps[k] = epsilon, epsilon * float(rng.uniform(0.2, 1.0))
    u = _haar_qr(ginibre)
    return rho, sigma, eps, _disturb_stack(u, rho, eps), _disturb_stack(u, sigma, eps)


def _disturbance_audit(
    name: str, margins_of, epsilon: float, dim: int, trials: int, rng
) -> CheckReport:
    """Check the parameters, then report ``margins_of`` over chunks of trials."""
    _check_inputs(trials, dim=dim, epsilon=epsilon)
    margins = (margins_of(epsilon, dim, chunk, rng) for chunk in _chunks(dim, trials))
    return _report_chunks(name, margins, detail=f"eps={epsilon} D={dim}")


def _contraction_margins(
    epsilon: float, dim: int, trials: range, rng: np.random.Generator
) -> np.ndarray:
    rho, sigma, eps, out_r, out_s = _disturbed_pairs(epsilon, dim, trials, rng)
    d_in = _trace_distance_stack(rho, sigma)[:, np.newaxis]
    d_out = _trace_distance_stack(out_r, out_s)
    gap = d_in - d_out
    margins = [
        gap + 1e-8,  # contractivity
        epsilon * d_in - gap + 1e-8,  # bounded shrinkage
        1e-8 - np.abs(d_out - (1.0 - eps) * d_in),  # exact law
    ]
    return np.stack(margins, axis=-1).ravel()


def distance_contraction_check(
    epsilon: float, dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Trace distance shrinks by at most the disturbance fraction.

    For every member at or below ``epsilon``: ``0 <= D_in - D_out <=
    epsilon * D_in`` (within 1e-8), and each member contracts by exactly its
    own weight, ``D_out = (1 - channel.epsilon) * D_in``.  The member at
    ``epsilon`` is the extremal one: it meets the shrinkage bound with
    equality.  Audited on pure and mixed input pairs.
    """
    return _disturbance_audit(
        "distance-contraction", _contraction_margins, epsilon, dim, trials, rng
    )


def _disturbance_margins(
    epsilon: float, dim: int, trials: range, rng: np.random.Generator
) -> np.ndarray:
    rho, sigma, eps, out_r, out_s = _disturbed_pairs(epsilon, dim, trials, rng)
    f_in = _fidelity_stack(rho, sigma)[:, np.newaxis]
    g_in = np.sqrt(f_in)  # what sqrt_fidelity_mixed returns
    d_in = _trace_distance_stack(rho, sigma)[:, np.newaxis]
    f_out = _fidelity_stack(out_r, out_s)
    g_out = np.sqrt(f_out)
    gain = f_out - f_in
    margins = np.stack(
        [
            gain + 1e-8,  # monotone, squared
            g_out - g_in + 1e-8,  # monotone, square root
            g_out - (1.0 - epsilon) * g_in + 1e-8,  # concavity
            2.0 * eps * d_in - gain + 1e-8,  # gain bound
        ],
        axis=-1,
    )
    keep = np.ones(margins.shape, dtype=bool)
    keep[np.array(trials) % 2 == 1, :, 3] = False  # the gain bound is for pure pairs
    return margins[keep]


def fidelity_disturbance_check(
    epsilon: float, dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Fidelity laws of the disturbed-device family.

    Per input pair and member: fidelity never decreases (both the squared
    and square-root conventions); the square-root fidelity of the outputs
    dominates ``(1 - epsilon) * G_in`` (joint concavity applied to the
    channel mixture); and on pure pairs the fidelity gain is at most
    ``2 * channel.epsilon * D_in``.  The pure-pair restriction on the last
    law is necessary: for ``rho = I/2`` vs a basis state on one qubit at
    ``eps = 0.1`` the gain exceeds the bound in both conventions.
    """
    return _disturbance_audit(
        "fidelity-disturbance", _disturbance_margins, epsilon, dim, trials, rng
    )


def _concavity_margins(
    dim: int, trials: range, rng: np.random.Generator
) -> np.ndarray:
    """Margins of a chunk of joint-concavity trials.

    Each trial draws 2 or 3 parts and their weights, then one pair per part
    for the rhos (keeping the first matrix) and one per part for the sigmas
    (keeping the second).
    """
    weights = np.zeros((len(trials), 3))  # padded with zero weights
    drawn = np.zeros(weights.shape, dtype=bool)
    mix_r, mix_s, part_r, part_s = [], [], [], []
    for i in range(len(trials)):
        parts = int(rng.integers(2, 4))
        w = weights[i, :parts] = rng.dirichlet(np.ones(parts))
        drawn[i, :parts] = True
        odd = [bool(k % 2) for k in range(parts)]
        rhos = [_random_pair(dim, rng, mixed)[0] for mixed in odd]
        sigmas = [_random_pair(dim, rng, mixed)[1] for mixed in odd]
        mix_r.append(sum(p * r for p, r in zip(w, rhos)))
        mix_s.append(sum(p * s for p, s in zip(w, sigmas)))
        part_r += rhos
        part_s += sigmas
    mix_r, mix_s, part_r, part_s = map(np.array, (mix_r, mix_s, part_r, part_s))
    lhs = np.sqrt(_fidelity_stack(mix_r, mix_s))
    g = np.zeros_like(weights)
    g[drawn] = np.sqrt(_fidelity_stack(part_r, part_s))
    # summed part by part from 0 like ``sum`` over one trial's parts; a
    # padded part adds 0.0, which leaves the sum unchanged
    rhs = sum(w * gk for w, gk in zip(weights.T, g.T))
    return lhs - rhs + 1e-8


def joint_concavity_check(
    dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Square-root fidelity is jointly concave over random ensembles.

    ``G(sum p_k rho_k, sum p_k sigma_k) >= sum p_k G(rho_k, sigma_k)``.
    The squared convention does not satisfy this (a rank-16 replacer mixture
    violates it), which is why the laboratory's mixture arguments go through
    the square-root form.
    """
    _check_inputs(trials, dim=dim)
    margins = (_concavity_margins(dim, chunk, rng) for chunk in _chunks(dim, trials))
    return _report_chunks(
        "sqrt-fidelity-joint-concavity", margins, detail=f"D={dim}"
    )


# ---------------------------------------------------------------------------
# equality-test statistics


def swap_statistics_check(
    trials: int, rng: np.random.Generator
) -> CheckReport:
    """Swap-battery acceptance matches ((1 + F) / 2) ** pairs.

    Grid over F in {0, 1/2, 1} and pair counts {1, 5, 20}; each cell is
    checked within three binomial standard errors, and the deterministic
    cells exactly (F = 1 always accepts).
    """
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


# ---------------------------------------------------------------------------
# negative control


def negative_control_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Audit a deliberately false claim; this check is SUPPOSED to fail.

    A half-disturbed device (eps = 0.5) is claimed to keep 0.9-distinguishable
    inputs distinguishable.  It cannot: the mixing floor alone pushes the
    output fidelity of orthogonal pure inputs far above 0.1.  A passing
    harness therefore reports violations here; if this check ever passes,
    the harness itself is broken, and so it needs at least one trial.
    """
    _check_inputs(trials, 1)
    dim = 4
    channel = EpsilonDisturbedChannel(epsilon=0.5, unitary=haar_unitary(dim, rng))
    margins: list[float] = []
    for _ in range(trials):
        a = _haar_vector(dim, rng)
        b = _haar_vector(dim, rng)
        b -= np.vdot(a, b) * a
        b /= np.linalg.norm(b)
        rho = DensityMatrix.from_state(StateVector(a))
        sigma = DensityMatrix.from_state(StateVector(b))
        ok = check_collision(channel, rho, sigma, delta_c=0.9)
        margins.append(0.0 if ok else -1.0)
    return _report(
        "negative-control-collision",
        margins,
        detail="expected to fail: eps=0.5 device audited against delta_c=0.9",
    )


def run_all_checks(
    seed: int, include_negative_control: bool = False
) -> list[CheckReport]:
    """The standard battery at CLI-scale trial counts."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    reports = [
        haar_subspace_weight_check(1, 2, 20000, rng),
        haar_subspace_weight_check(3, 8, 20000, rng),
        recovery_floor_check(120, rng),
        closed_form_check(80, rng),
        orthogonal_challenge_check(60, rng),
        distance_contraction_check(0.3, 4, 60, rng),
        fidelity_disturbance_check(0.3, 4, 60, rng),
        joint_concavity_check(4, 60, rng),
        swap_statistics_check(2000, rng),
    ]
    if include_negative_control:
        reports.append(negative_control_check(50, rng))
    return reports
