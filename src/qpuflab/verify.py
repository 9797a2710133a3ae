"""Monte Carlo and exact audits of the laboratory's quantitative claims.

Each check returns a :class:`CheckReport`; ``run_all_checks`` bundles the
standard battery at CLI-friendly trial counts.  ``worst_margin`` is the
smallest slack seen across all trials of a check (negative means at least
one violation), so a barely-passing check is visible as a small positive
margin rather than a bare boolean.

The negative control deliberately audits a false claim (a heavily disturbed
device sold as strongly collision-resistant) and is expected to FAIL; it
exists to prove the harness can reject, and is only included on request.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .emulator import QeConfig, run_full, run_stage1, closed_form_state
from .errors import PostSelectionFailure
from .numerics import (
    DensityMatrix,
    StateVector,
    fidelity_mixed,
    haar_state,
    haar_unitary,
    span_projector,
    sqrt_fidelity_mixed,
    trace_distance,
)
from .qpuf import EpsilonDisturbedChannel, channel_apply, check_collision
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


# ---------------------------------------------------------------------------
# Haar-average subspace weight


def haar_subspace_weight_check(
    d: int, dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Mean squared overlap of a Haar state with a d-dim subspace is d/D.

    Verified against the computational-basis projector (Haar invariance makes
    the subspace choice irrelevant) within three empirical standard errors.
    """
    if not 0 <= d <= dim:
        raise ValueError(f"subspace dimension {d} outside 0..{dim}")
    raw = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.sum(np.abs(raw[:, :d]) ** 2, axis=1)
    mean = float(np.mean(weights))
    stderr = float(np.std(weights, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
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
) -> tuple[QeConfig, np.ndarray]:
    """Random device + sample set + reference; returns (cfg, device matrix)."""
    n = int(rng.choice(n_choices))
    k = int(rng.choice(k_choices))
    dim = 2**n
    u = haar_unitary(dim, rng).matrix
    samples_in = tuple(haar_state(dim, rng) for _ in range(k))
    samples_out = tuple(StateVector(u @ s.amplitudes) for s in samples_in)
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
        psi = StateVector(vec / np.linalg.norm(vec))
    else:
        psi = haar_state(cfg.dim, rng)
    target = StateVector(u @ psi.amplitudes)
    return cfg, psi, target


def recovery_floor_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Post-selected output fidelity is at least sqrt(p_succ_stage1).

    Audited over random devices, sample sets (balanced between in-span and
    generic inputs), reference choices, and register sizes.
    """
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
    ``p_succ_stage1 <= 1e-12`` and post-selection must raise.
    """
    margins: list[float] = []
    for _ in range(trials):
        # at most 3 samples in D >= 4 leave a non-trivial complement
        cfg, _ = _random_qe_config(rng, (2, 3), (2, 3))
        # draw the input from the orthogonal complement of the sample span
        # (project with the span projector -- the raw samples are not an
        # orthogonal family, so sequential Gram-Schmidt would be wrong)
        proj = span_projector(cfg.samples_in).matrix
        while True:
            v = haar_state(cfg.dim, rng).amplitudes
            v = v - proj @ v
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                break
        psi = StateVector(v / norm)
        try:
            res = run_full(cfg, psi)
        except PostSelectionFailure as exc:
            margins.append(1e-12 - exc.pass_prob**2)
        else:
            margins.append(min(1e-12 - res.p_succ_stage1, -1.0))
    return _report("orthogonal-challenge-rejection", margins)


# ---------------------------------------------------------------------------
# disturbed-device laws


def _random_mixed(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    weights = rng.dirichlet(np.ones(rank))
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        s = haar_state(dim, rng).amplitudes
        acc += w * np.outer(s, s.conj())
    return DensityMatrix(acc)


def _random_pair(
    dim: int, rng: np.random.Generator, mixed: bool
) -> tuple[DensityMatrix, DensityMatrix]:
    if mixed:
        rank = int(rng.integers(2, dim + 1))
        return _random_mixed(dim, rank, rng), _random_mixed(dim, rank, rng)
    a = haar_state(dim, rng)
    b = haar_state(dim, rng)
    return DensityMatrix.from_state(a), DensityMatrix.from_state(b)


def _both_channels(
    epsilon: float, dim: int, rng: np.random.Generator
) -> tuple[EpsilonDisturbedChannel, ...]:
    """The member at ``epsilon`` and, on the same unitary, the member at
    ``epsilon * s``: depolarizing strength ``s`` drawn from [0.2, 1)."""
    u = haar_unitary(dim, rng)
    strength = float(rng.uniform(0.2, 1.0))
    return (
        EpsilonDisturbedChannel(epsilon, u),
        EpsilonDisturbedChannel(epsilon * strength, u),
    )


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
    margins: list[float] = []
    for t in range(trials):
        rho, sigma = _random_pair(dim, rng, mixed=bool(t % 2))
        d_in = trace_distance(rho, sigma)
        for channel in _both_channels(epsilon, dim, rng):
            d_out = trace_distance(
                channel_apply(channel, rho), channel_apply(channel, sigma)
            )
            gap = d_in - d_out
            margins.append(gap + 1e-8)  # contractivity
            margins.append(epsilon * d_in - gap + 1e-8)  # bounded shrinkage
            exact = (1.0 - channel.epsilon) * d_in
            margins.append(1e-8 - abs(d_out - exact))  # exact law
    return _report(
        "distance-contraction", margins, detail=f"eps={epsilon} D={dim}"
    )


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
    margins: list[float] = []
    for t in range(trials):
        mixed = bool(t % 2)
        rho, sigma = _random_pair(dim, rng, mixed=mixed)
        f_in = fidelity_mixed(rho, sigma)
        g_in = float(np.sqrt(f_in))  # what sqrt_fidelity_mixed returns
        d_in = trace_distance(rho, sigma)
        for channel in _both_channels(epsilon, dim, rng):
            out_r = channel_apply(channel, rho)
            out_s = channel_apply(channel, sigma)
            f_out = fidelity_mixed(out_r, out_s)
            g_out = float(np.sqrt(f_out))
            margins.append(f_out - f_in + 1e-8)  # monotone, squared
            margins.append(g_out - g_in + 1e-8)  # monotone, square root
            margins.append(g_out - (1.0 - epsilon) * g_in + 1e-8)  # concavity
            if not mixed:
                bound = 2.0 * channel.epsilon * d_in
                margins.append(bound - (f_out - f_in) + 1e-8)
    return _report(
        "fidelity-disturbance", margins, detail=f"eps={epsilon} D={dim}"
    )


def joint_concavity_check(
    dim: int, trials: int, rng: np.random.Generator
) -> CheckReport:
    """Square-root fidelity is jointly concave over random ensembles.

    ``G(sum p_k rho_k, sum p_k sigma_k) >= sum p_k G(rho_k, sigma_k)``.
    The squared convention does not satisfy this (a rank-16 replacer mixture
    violates it), which is why the laboratory's mixture arguments go through
    the square-root form.
    """
    margins: list[float] = []
    for _ in range(trials):
        parts = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(parts))
        rhos = [_random_pair(dim, rng, mixed=bool(k % 2))[0] for k in range(parts)]
        sigmas = [_random_pair(dim, rng, mixed=bool(k % 2))[1] for k in range(parts)]
        mix_r = DensityMatrix(
            sum(w * r.matrix for w, r in zip(weights, rhos))
        )
        mix_s = DensityMatrix(
            sum(w * s.matrix for w, s in zip(weights, sigmas))
        )
        lhs = sqrt_fidelity_mixed(mix_r, mix_s)
        rhs = float(
            sum(
                w * sqrt_fidelity_mixed(r, s)
                for w, r, s in zip(weights, rhos, sigmas)
            )
        )
        margins.append(lhs - rhs + 1e-8)
    return _report("sqrt-fidelity-joint-concavity", margins, detail=f"D={dim}")


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
    the harness itself is broken.
    """
    dim = 4
    channel = EpsilonDisturbedChannel(epsilon=0.5, unitary=haar_unitary(dim, rng))
    margins: list[float] = []
    for _ in range(trials):
        a = haar_state(dim, rng).amplitudes
        b = haar_state(dim, rng).amplitudes.copy()
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
