"""Monte Carlo and exact audits of the laboratory's quantitative claims.

Each check returns a :class:`CheckReport`; ``run_all_checks`` bundles the
standard battery at CLI-friendly trial counts.  ``worst_margin`` is the
smallest slack seen across all trials of a check (negative means at least
one violation), so a barely-passing check is visible as a small positive
margin rather than a bare boolean.

Every check validates its parameters on entry, before its first draw.

The disturbance and concavity audits and the negative control then work on
plain arrays, a bounded chunk of trials at a time: a draw loop that holds
only generator calls takes every trial's raw draws in stream order, with
consecutive normal draws merged into one call and mixture weights drawn as
exponentials (normalised per chunk, as ``Generator.dirichlet`` does), and the
chunk is then built and evaluated as ``(T, D, D)`` stacks with one
``eigvalsh``/``eigh``/matmul per stack.  LAPACK and BLAS treat each matrix of
a stack on its own, so every margin is bit for bit the one-trial value.
What they build from Haar draws, mixtures and the epsilon-channel is a
density matrix by construction and is not validated again; tests check that
on sampled draws.  The swap battery draws each cell as one array.  The
emulation audits draw every trial in stream order too, and run the circuit
kernels on raw sample rows, one circuit at a time.  Only the recovery-floor
audit forms its devices, by one stacked QR per dimension; the other two run
stages that read only the input samples.

The negative control deliberately audits a false claim (a heavily disturbed
device sold as strongly collision-resistant) and is expected to FAIL; it
exists to prove the harness can reject, and is only included on request.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .emulator import _closed_form_state, _run, _stage1, _through_stage2
from .errors import InvalidQuantumObject, PostSelectionFailure, PreconditionViolation
from .numerics import (
    DERIVED_TOL,
    StateVector,
    _as_int,
    _check_dim,
    _check_seed,
    _complement_vector,
    _disturb_stack,
    _fidelity_stack,
    _haar_qr,
    _haar_vector,
    _normalised,
    _trace_distance_stack,
    _unchecked,
    fidelity_pure,
    haar_unitary,
    span_projector,
)
from .testers import _swap_tally, expected_acceptance
# bench/tracer.py patches haar_state, fidelity_mixed, trace_distance,
# channel_apply, run_test, run_full, run_stage1 and closed_form_state here
from .emulator import closed_form_state, run_full, run_stage1  # noqa: F401
from .numerics import fidelity_mixed, haar_state, trace_distance  # noqa: F401
from .qpuf import channel_apply  # noqa: F401
from .testers import run_test  # noqa: F401


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
    """Report over margin arrays, one per chunk of trials, none kept; a margin
    violates unless it is at least 0, so a NaN one fails and is the worst."""
    trials = violations = 0
    worst = float("inf")
    for margins in chunks:
        trials += margins.size
        violations += int(np.count_nonzero(~(margins >= 0.0)))
        if margins.size:
            low = float(margins.min())  # NaN if any margin is
            worst = low if math.isnan(low) else min(worst, low)
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
    detail = f"d={d} D={dim} mean={mean:.6f} expected={d / dim:.6f} 3se={allowance:.2e}"
    report = _report_chunks("haar-subspace-weight", [np.array([margin])], detail)
    return replace(report, trials=trials)  # one margin from all the trials


# ---------------------------------------------------------------------------
# emulation circuit laws


def _qe_trials(
    trials: int, rng: np.random.Generator, n_choices: tuple, k_choices: tuple, draw_input
) -> list[tuple]:
    """``trials`` random emulation trials: a device, k samples and a reference.

    Each trial draws, in order, a register size and a sample count from the
    choices, the normals of ``haar_unitary`` and of k ``haar_state`` calls in
    one call, and ``integers(k)``; ``draw_input(rng, samples)`` then draws
    the trial's input from its normalised ``(k, D)`` sample rows.  Returns
    each trial's ``(samples, reference, ginibre, input draw)``, with
    ``ginibre`` the device's unfactored ``(2, D, D)`` real and imaginary parts.
    """
    made = []
    for _ in range(trials):
        dim = 2 ** n_choices[rng.integers(len(n_choices))]
        k = k_choices[rng.integers(len(k_choices))]
        normals = rng.standard_normal(2 * dim * (dim + k))
        ref = int(rng.integers(k))
        cut = 2 * dim * dim
        units = normals[cut:].reshape(k, 2, dim)
        samples = _normalised(units[:, 0] + 1j * units[:, 1])
        ginibre = normals[:cut].reshape(2, dim, dim)
        made.append((samples, ref, ginibre, draw_input(rng, samples)))
    return made


def _haar_devices(ginibre: list[np.ndarray]) -> list[np.ndarray]:
    """Raw Haar unitaries of ``(2, D, D)`` Ginibre parts, one stacked QR per dimension."""
    devices = [None] * len(ginibre)
    for dim in {g.shape[-1] for g in ginibre}:
        group = [t for t, g in enumerate(ginibre) if g.shape[-1] == dim]
        stack = np.array([ginibre[t] for t in group])
        for t, u in zip(group, _haar_qr(stack[:, 0] + 1j * stack[:, 1])):
            devices[t] = u
    return devices


def _setup_input(rng: np.random.Generator, samples: np.ndarray) -> np.ndarray:
    """A fair coin, then either a state in the samples' span, from the normals
    of k coefficients, or a Haar state from the normals of its amplitudes."""
    in_span = rng.random() < 0.5
    k, dim = samples.shape
    z = rng.standard_normal(2 * k if in_span else 2 * dim)
    z = z[: len(z) // 2] + 1j * z[len(z) // 2:]  # k coefficients, or D amplitudes
    vec = sum(c * s for c, s in zip(z, samples)) if in_span else z
    return vec / np.linalg.norm(vec)


def recovery_floor_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Post-selected output fidelity is at least sqrt(p_succ_stage1).

    Audited over random devices, sample sets (balanced between in-span and
    generic inputs), reference choices, and register sizes.
    """
    _check_inputs(trials)
    setups = _qe_trials(trials, rng, (1, 2), (2, 3), _setup_input)
    margins: list[float] = []
    for (samples, ref, _, psi), u in zip(setups, _haar_devices([s[2] for s in setups])):
        images = np.array([u @ s for s in samples])
        try:
            res = _run(samples, images, ref, psi, target=u @ psi)
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
    return _aligned_distance(a.amplitudes, b.amplitudes)


def _aligned_distance(av: np.ndarray, bv: np.ndarray) -> float:
    """``pure_state_distance_bound`` on amplitudes."""
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
    for samples, ref, _, psi in _qe_trials(trials, rng, (1, 2), (2, 3, 4), _setup_input):
        circuit = _stage1(samples, ref, psi).reshape(-1)
        symbolic = _closed_form_state(samples, ref, psi)
        margins.append(1e-9 - _aligned_distance(circuit, symbolic))
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
    # at most 3 samples in D >= 4 leave a non-trivial complement
    for samples, ref, _, psi in _qe_trials(trials, rng, (2, 3), (2, 3), _complement_input):
        try:
            pass_prob = _through_stage2(samples, ref, psi)[2]
        except PostSelectionFailure as exc:
            margins.append(_log_margin(exc.pass_prob**2))
        else:
            margins.append(min(1e-12 - pass_prob**2, -1.0))
    return _report("orthogonal-challenge-rejection", margins)


def _complement_input(rng: np.random.Generator, samples: np.ndarray) -> np.ndarray:
    """A Haar state orthogonal to the trial's samples.  They are not
    orthogonal, so it is drawn against their span's orthonormal basis."""
    span = span_projector([_unchecked(StateVector, amplitudes=s) for s in samples])
    return _complement_vector(span.basis, samples.shape[1], rng)


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


def _density_stack(
    units: np.ndarray, weights: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """Density matrices from raw Haar draws, as ``(..., D, D)``.

    ``units`` holds the normals of up to R Haar states per matrix, as
    ``(..., R, 2D)``: the real parts, then the imaginary ones.  A matrix of
    ``rank`` 1 is the pure state of its first; one of rank ``r >= 2`` is
    ``sum_j weights[..., j] |v_j><v_j|`` over its first r, summed from 0 one
    state at a time; one of rank 0 is zero.  Only drawn rows are normalised
    (a zero padding row would give NaN), and outer products are formed one
    state index at a time, so no ``(..., R, D, D)`` stack is built.
    """
    dim = units.shape[-1] // 2
    live = np.arange(units.shape[-2]) < rank[..., np.newaxis]
    raw = units[live]
    vecs = np.zeros(live.shape + (dim,), dtype=np.complex128)
    vecs[live] = _normalised(raw[:, :dim] + 1j * raw[:, dim:])
    out = np.zeros(rank.shape + (dim, dim), dtype=np.complex128)
    out[rank == 1] = _outers(vecs[rank == 1, 0])
    for j in range(units.shape[-2]):
        mixed = live[..., j] & (rank > 1)
        w = weights[mixed, j, np.newaxis, np.newaxis]
        out[mixed] += w * _outers(vecs[mixed, j])
    return out


def _outers(states: np.ndarray) -> np.ndarray:
    """``|v><v|`` of each state of a ``(..., D)`` stack, as ``np.outer`` forms it."""
    return states[..., :, np.newaxis] * states.conj()[..., np.newaxis, :]


def _normalise_rows(w: np.ndarray, drawn) -> None:
    """Scale the ``drawn`` rows of exponentials ``w`` in place by ``1.0 /``
    their left-to-right sum, as ``Generator.dirichlet(np.ones(r))`` does."""
    w[drawn] *= 1.0 / np.cumsum(w[drawn], axis=-1)[..., -1:]


def _disturbed_pairs(
    epsilon: float, dim: int, trials: range, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Inputs and outputs of a chunk of disturbance trials.

    Each trial draws its input pair (mixed on odd trials), then the Ginibre
    matrix of a Haar unitary and a depolarizing strength ``s`` from
    [0.2, 1): the members at ``epsilon`` and ``epsilon * s`` share that
    unitary.  The draw loop holds only generator calls, with consecutive
    normals in one call: a pure trial is one ``standard_normal(4D + 2D**2)``
    and one ``uniform``; a mixture's weights are exponentials, normalised once
    per chunk.  ``s`` stays a per-trial ``uniform``: numpy forms ``low + range
    * u`` in C, where it may fuse into one FMA, so no array expression keeps
    its bits on every build.  The pairs are then built on stacks and one
    stacked QR factors the chunk's unitaries.  Returns ``rho, sigma`` as
    ``(T, D, D)``, the members' epsilons as ``(T, 2)`` and both outputs as
    ``(T, 2, D, D)``.
    """
    size, cut = len(trials), 2 * dim * dim
    units = np.zeros((2, size, dim, 2 * dim))  # up to D states for rho, for sigma
    weights = np.zeros((2, size, dim))
    rank = np.ones((2, size), dtype=np.int64)
    ginibre = np.empty((size, cut))
    strength = np.empty(size)
    for i, t in enumerate(trials):
        if t % 2:  # two mixtures of one rank
            r = rank[:, i] = int(rng.integers(2, dim + 1))
            rng.standard_exponential(out=weights[0, i, :r])
            rng.standard_normal(out=units[0, i, :r])
            rng.standard_exponential(out=weights[1, i, :r])
            normals = rng.standard_normal(2 * dim * r + cut)
            units[1, i, :r] = normals[:-cut].reshape(r, 2 * dim)
        else:
            normals = rng.standard_normal(4 * dim + cut)
            units[:, i, 0] = normals[:-cut].reshape(2, 2 * dim)
        ginibre[i] = normals[-cut:]
        strength[i] = rng.uniform(0.2, 1.0)
    _normalise_rows(weights, rank > 1)
    rho, sigma = _density_stack(units, weights, rank)
    ginibre = ginibre.reshape(size, 2, dim, dim)
    u = _haar_qr(ginibre[:, 0] + 1j * ginibre[:, 1])
    eps = np.stack([np.full(size, float(epsilon)), epsilon * strength], axis=-1)
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
    (keeping the second): a pure pair at even parts, a mixed one at part 1.
    The draw loop makes every draw of the pairs, the halves it does not keep
    too, with consecutive normals in one call and weights as exponentials,
    normalised once per chunk; only the kept halves are built.
    """
    size, two = len(trials), 2 * dim
    weights = np.zeros((size, 3))  # padded with zero weights
    units = np.zeros((2, size, 3, dim, two))  # up to D states per part
    mixing = np.zeros((2, size, 3, dim))
    rank = np.zeros((2, size, 3), dtype=np.int64)  # 0: a part not drawn
    for i in range(size):
        parts = int(rng.integers(2, 4))
        rng.standard_exponential(out=weights[i, :parts])
        rank[:, i, :parts] = 1
        # rho parts: each pair's first member; a pure pair is 4D normals
        units[0, i, 0, 0] = rng.standard_normal(2 * two)[:two]
        r = rank[0, i, 1] = int(rng.integers(2, dim + 1))
        rng.standard_exponential(out=mixing[0, i, 1, :r])
        rng.standard_normal(out=units[0, i, 1, :r])
        rng.standard_exponential(r)  # dropped, as are its states
        # part 1's dropped states, then the pairs of rho part 2 and sigma part 0
        normals = rng.standard_normal(two * r + 2 * two * (parts - 1))
        if parts == 3:
            units[0, i, 2, 0] = normals[two * r:][:two]
        units[1, i, 0, 0] = normals[-two:]
        # sigma parts: each pair's second member
        r = rank[1, i, 1] = int(rng.integers(2, dim + 1))
        rng.standard_exponential(r)  # dropped, as are its states
        rng.standard_normal(two * r)
        rng.standard_exponential(out=mixing[1, i, 1, :r])
        normals = rng.standard_normal(two * r + 2 * two * (parts - 2))
        units[1, i, 1, :r] = normals[: two * r].reshape(r, two)
        if parts == 3:
            units[1, i, 2, 0] = normals[-two:]
    _normalise_rows(weights, slice(None))
    _normalise_rows(mixing, rank > 1)
    states = _density_stack(units, mixing, rank)  # (2, T, 3, D, D)
    mix = np.zeros((2, size, dim, dim), dtype=np.complex128)
    for k in range(3):  # summed part by part from 0, as ``sum`` adds one trial's parts
        drawn = rank[0, :, k] > 0
        mix[:, drawn] += weights[drawn, k, np.newaxis, np.newaxis] * states[:, drawn, k]
    lhs = np.sqrt(_fidelity_stack(*mix))
    drawn = rank[0] > 0
    g = np.zeros_like(weights)
    g[drawn] = np.sqrt(_fidelity_stack(states[0][drawn], states[1][drawn]))
    # a padded part adds 0.0, which leaves the sum unchanged
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


def swap_statistics_check(trials: int, rng: np.random.Generator) -> CheckReport:
    """Swap-battery acceptance matches ((1 + F) / 2) ** pairs.

    Grid over F in {0, 1/2, 1} and pair counts {1, 5, 20}; each cell is
    checked within three binomial standard errors, and the deterministic
    cells exactly (F = 1 always accepts).  A cell is one stream-ordered draw
    of all its trials by the tester's swap rule, at the F ``run_test`` judges.
    """
    _check_inputs(trials, 1)
    margins: list[float] = []
    details: list[str] = []
    target = StateVector(np.array([1.0, 0.0]))
    for f in (0.0, 0.5, 1.0):
        judged = fidelity_pure(target, StateVector(np.sqrt([f, 1.0 - f])))
        for pairs in (1, 5, 20):
            rate = _swap_tally(judged, trials, pairs, rng)[1] / trials
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
    u = haar_unitary(4, rng).matrix
    bound = 1.0 - 0.9 + DERIVED_TOL  # check_collision's, on inputs and outputs
    margins = []
    for chunk in _chunks(4, trials):
        states = np.empty((2, len(chunk), 4), dtype=np.complex128)
        for t in range(len(chunk)):  # a Haar state, then one orthogonal to it
            states[0, t] = a = _haar_vector(4, rng)
            states[1, t] = _complement_vector([a], 4, rng)
        pairs = _outers(states)
        if np.any((f_in := _fidelity_stack(*pairs)) > bound):
            first = f_in[f_in > bound][0]
            raise PreconditionViolation(f"inputs have fidelity {first:.6f} > "
                                        f"1 - delta_c = {1.0 - 0.9}")
        f_out = _fidelity_stack(*_disturb_stack(u, pairs, [0.5])[:, :, 0])
        margins.append(np.where(f_out <= bound, 0.0, -1.0))
    detail = "expected to fail: eps=0.5 device audited against delta_c=0.9"
    return _report_chunks("negative-control-collision", margins, detail)


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
