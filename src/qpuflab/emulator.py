"""Emulation circuit: rebuild a unitary's action on a new input from samples.

Given sample pairs ``(phi_i, phi_i_out = U phi_i)`` and a designated
reference pair, the circuit pushes an input ``psi`` onto the reference state
(stage 1 + a post-selected projective measurement, stage 2), swaps in the
*output* reference state (stage 3), and then runs the stage-1 blocks
time-reversed with the output samples (stage 4).  When the input lies in the
span of the samples, the result approximates ``U psi`` with fidelity at least
the square root of the stage-1 success probability.

Register layout: the system register (dimension ``D``) comes first, followed
by one ancilla qubit per non-reference sample, each prepared in ``|->``.
The reference state needs no block of its own: reflecting around it is
exactly what the stage-2 measurement already does.

Stage-1 blocks apply, controlled on the block's ancilla: a reflection around
the reference, a Hadamard on the ancilla, then a reflection around the
block's sample.  Stage 4 runs the same blocks on the output samples in reverse
order *and* reverses the gate order inside each block (reflections and
Hadamards are involutions, so this is the exact inverse circuit built from
output states).

The gates act on the contiguous joint array through reshaped views: ancilla
``j`` of ``n`` is the middle axis of ``(D, 2**(j-1), 2, 2**(n-j))``, so no
axis is moved.  Each reflection takes its overlaps with one ``np.dot`` of
the operands ``np.tensordot`` used to build, which keeps every output bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidQuantumObject, PostSelectionFailure
from .numerics import DensityMatrix, StateVector, _as_int, _check_qubits, _unchecked

#: label used for the circuit input state in closed-form terms
INPUT_LABEL = -1

#: stage-2 outcomes below this probability cannot be post-selected
POST_SELECT_FLOOR = 1e-12

_SQRT2 = np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / _SQRT2


@dataclass(frozen=True, eq=False)
class QeConfig:
    """Sample set, its images, and which sample is the reference."""

    samples_in: tuple[StateVector, ...]
    samples_out: tuple[StateVector, ...]
    reference_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples_in", tuple(self.samples_in))
        object.__setattr__(self, "samples_out", tuple(self.samples_out))
        k = len(self.samples_in)
        if k == 0:
            raise InvalidQuantumObject("at least one sample is required")
        if len(self.samples_out) != k:
            raise DimensionMismatch("samples_in and samples_out lengths differ")
        dim = self.samples_in[0].dim
        for s in self.samples_in + self.samples_out:
            if s.dim != dim:
                raise DimensionMismatch("all samples must share one dimension")
        if not 0 <= _as_int(self.reference_index, "reference_index") < k:
            raise InvalidQuantumObject(
                f"reference_index {self.reference_index} outside 0..{k - 1}"
            )
        _check_qubits(k - 1, least=0, factor=dim)  # one ancilla per block

    @property
    def dim(self) -> int:
        return self.samples_in[0].dim

    @property
    def n_blocks(self) -> int:
        """One block per non-reference sample."""
        return len(self.samples_in) - 1

    @property
    def block_sample_indices(self) -> tuple[int, ...]:
        """Sample indices driving the blocks, in application order."""
        return tuple(
            i for i in range(len(self.samples_in)) if i != self.reference_index
        )


@dataclass(frozen=True)
class ClosedFormTerm:
    """One summand of the exact stage-1 output expansion.

    ``system_label`` indexes ``samples_in`` (or ``INPUT_LABEL`` for the
    circuit input); ``ancilla_bits`` lists the ancilla basis state, one bit
    per block in application order.
    """

    coefficient: complex
    system_label: int
    ancilla_bits: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class QeRunResult:
    """Outcome of a full emulation run.

    ``stage2_bit`` is the stage-2 outcome (0 = pass, 1 = fail; always 0 on a
    conditioned run).  ``output_mixed`` is the reduced state of the system
    register.  ``fidelity_vs_target`` is the sandwich
    ``<target| output_mixed |target>`` when a target was supplied.
    """

    output_mixed: DensityMatrix
    stage2_bit: int
    p_succ_stage1: float
    stage2_pass_prob: float
    fidelity_vs_target: float | None


def _split(joint: np.ndarray, axis: int) -> np.ndarray:
    """View ``joint`` as (system, ancillas before ``axis``, ``axis``, after)."""
    return joint.reshape(joint.shape[0], 2 ** (axis - 1), 2, -1)


def _overlaps(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``<phi|`` against every column of the (D, M) ``rows``, shape (M,).

    One dot of the same operands ``np.tensordot(phi.conj(), ., axes=(0, 0))``
    builds: a lone column keeps its stride, so BLAS sums in the same order.
    """
    return np.dot(phi.conj()[None, :], rows)[0]


def _controlled_reflect(joint: np.ndarray, phi: np.ndarray, axis: int) -> np.ndarray:
    """Reflect the system register on the ``|1>`` branch of one ancilla axis."""
    out = _split(joint, axis).copy()
    branch = out[:, :, 1, :]
    overlap = _overlaps(phi, branch.reshape(len(phi), -1))
    out[:, :, 1, :] = branch - 2.0 * np.multiply.outer(
        phi, overlap.reshape(branch.shape[1:])
    )
    return out


def _hadamard(joint: np.ndarray, axis: int) -> np.ndarray:
    view = _split(joint, axis)
    s0, s1 = view[:, :, 0, :], view[:, :, 1, :]
    out = np.empty_like(view)
    out[:, :, 0, :] = (s0 + s1) / _SQRT2
    out[:, :, 1, :] = (s0 - s1) / _SQRT2
    return out


def _initial_joint(cfg: QeConfig, psi: StateVector) -> np.ndarray:
    joint = psi.amplitudes
    for _ in range(cfg.n_blocks):
        joint = np.multiply.outer(joint, _MINUS)
    return joint


def _run_blocks(
    joint: np.ndarray,
    cfg: QeConfig,
    samples: tuple[StateVector, ...],
    reverse: bool = False,
) -> np.ndarray:
    """Apply the blocks built from ``samples`` (stage 1, or stage 4 reversed).

    Each block is (axis, reflect around ``a``, Hadamard, reflect around
    ``b``) with ``a`` the reference and ``b`` the block's sample;
    ``reverse`` runs the blocks, and the steps inside each, backwards.
    """
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


def run_stage1(cfg: QeConfig, psi: StateVector) -> StateVector:
    """Exact joint state after all stage-1 blocks.

    The joint state lives on system x ancillas with one ancilla per block,
    system register first.
    """
    if psi.dim != cfg.dim:
        raise DimensionMismatch(f"input dim {psi.dim} != sample dim {cfg.dim}")
    joint = _run_blocks(_initial_joint(cfg, psi), cfg, cfg.samples_in)
    return _unchecked(StateVector, amplitudes=joint.reshape(-1))


def _system_vector(cfg: QeConfig, psi: StateVector, label: int) -> np.ndarray:
    """Amplitudes of a closed-form system label."""
    return psi.amplitudes if label == INPUT_LABEL else cfg.samples_in[label].amplitudes


def stage1_closed_form(cfg: QeConfig, psi: StateVector) -> list[ClosedFormTerm]:
    """Stage-1 output as an exact sum over labeled system states.

    Runs the block recursion symbolically: each block maps a term
    ``c * |x>|bits>`` to five terms whose coefficients involve only inner
    products with the reference and the block's sample.  Terms with equal
    label and ancilla bits are merged; coefficients below 1e-14 (exactly
    cancelled or structurally zero branches) are dropped.
    """
    if psi.dim != cfg.dim:
        raise DimensionMismatch(f"input dim {psi.dim} != sample dim {cfg.dim}")

    def ip(a: int, b: int) -> complex:
        return complex(
            np.vdot(_system_vector(cfg, psi, a), _system_vector(cfg, psi, b))
        )

    r = cfg.reference_index
    terms: dict[tuple[int, tuple[int, ...]], complex] = {(INPUT_LABEL, ()): 1.0 + 0j}
    for sample_idx in cfg.block_sample_indices:
        new: dict[tuple[int, tuple[int, ...]], complex] = {}

        def add(label: int, bits: tuple[int, ...], c: complex) -> None:
            key = (label, bits)
            new[key] = new.get(key, 0.0 + 0j) + c

        for (label, bits), c in terms.items():
            ref_overlap = ip(r, label)
            add(r, bits + (0,), c * ref_overlap)
            add(label, bits + (1,), c)
            add(r, bits + (1,), -c * ref_overlap)
            add(sample_idx, bits + (1,), -2.0 * c * ip(sample_idx, label))
            add(sample_idx, bits + (1,), 2.0 * c * ip(sample_idx, r) * ref_overlap)
        terms = new

    kept = [
        ClosedFormTerm(coefficient=c, system_label=label, ancilla_bits=bits)
        for (label, bits), c in terms.items()
        if abs(c) > 1e-14
    ]
    kept.sort(key=lambda t: (t.ancilla_bits, t.system_label))
    return kept


def closed_form_state(
    cfg: QeConfig, psi: StateVector, terms: list[ClosedFormTerm] | None = None
) -> StateVector:
    """Sum a closed-form term list back into a joint state vector."""
    if terms is None:
        terms = stage1_closed_form(cfg, psi)
    d = cfg.dim
    joint = np.zeros((d,) + (2,) * cfg.n_blocks, dtype=np.complex128)
    for t in terms:
        if len(t.ancilla_bits) != cfg.n_blocks:
            raise DimensionMismatch("term has wrong number of ancilla bits")
        sys_vec = _system_vector(cfg, psi, t.system_label)
        joint[(slice(None),) + t.ancilla_bits] += t.coefficient * sys_vec
    return StateVector(joint.reshape(-1))


def _reduced_system(joint: np.ndarray, dim: int) -> np.ndarray:
    mat = joint.reshape(dim, -1)
    return mat @ mat.conj().T


def run_full(
    cfg: QeConfig,
    psi: StateVector,
    rng: np.random.Generator | None = None,
    target: StateVector | None = None,
) -> QeRunResult:
    """Run all four stages and report the system register's output.

    Without an ``rng`` stage 2 is conditioned on the passing outcome and its
    probability is recorded.  With one, the outcome is drawn from a single
    ``rng.random()``: a failed draw aborts the run and reports the failure
    branch as-is (no restore stages), modeling one physical execution
    without retries.  Either way a pass probability below
    ``POST_SELECT_FLOOR`` raises :class:`PostSelectionFailure`, which carries
    it as ``pass_prob``, before anything is drawn.
    """
    d = cfg.dim
    if target is not None and target.dim != d:
        raise DimensionMismatch(f"target dim {target.dim} != system dim {d}")
    ref_in = cfg.samples_in[cfg.reference_index].amplitudes
    ref_out = cfg.samples_out[cfg.reference_index].amplitudes

    joint = run_stage1(cfg, psi).amplitudes.reshape(d, -1)

    # stage 2: measure the projector onto the reference (via an ancilla that
    # is never represented explicitly: outcome 0 projects, outcome 1 deflects)
    anc_overlap = _overlaps(ref_in, joint)
    pass_prob = float(np.sum(np.abs(anc_overlap) ** 2))
    pass_prob = min(max(pass_prob, 0.0), 1.0)
    if pass_prob < POST_SELECT_FLOOR:
        raise PostSelectionFailure(
            f"stage-2 pass probability {pass_prob:.3e} is negligible",
            pass_prob=pass_prob,
        )

    stage2_bit = 0 if rng is None or rng.random() < pass_prob else 1
    if stage2_bit:
        fail = joint - np.multiply.outer(ref_in, anc_overlap)
        final = fail / np.linalg.norm(fail)
    else:
        # post-stage-2 state is ref (x) Omega; stage 3 swaps in the output
        # reference, stage 4 restores the input's information from Omega
        omega = anc_overlap / np.sqrt(pass_prob)
        final = _run_blocks(
            np.multiply.outer(ref_out, omega), cfg, cfg.samples_out, reverse=True
        )
    rho = _reduced_system(final, d)
    rho = 0.5 * (rho + rho.conj().T)
    output_mixed = _unchecked(DensityMatrix, matrix=rho / float(np.trace(rho).real))
    fidelity = None
    if target is not None:
        t = target.amplitudes
        fidelity = float(np.real(t.conj() @ output_mixed.matrix @ t))
    return QeRunResult(
        output_mixed=output_mixed,
        stage2_bit=stage2_bit,
        p_succ_stage1=pass_prob**2,
        stage2_pass_prob=pass_prob,
        fidelity_vs_target=fidelity,
    )
