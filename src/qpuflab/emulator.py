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

The public stages check sizes against a validated :class:`QeConfig`, which
keeps its samples as stacked ``(k, D)`` rows; the kernels read only such raw
rows, a reference index and amplitudes, so raw draws need no ``QeConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidQuantumObject, PostSelectionFailure
from .numerics import DensityMatrix, StateVector, _as_int, _check_qubits, _frozen_array
from .numerics import _row_dots, _unchecked

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
        # what the kernels read: both sample sets as read-only (k, D) rows
        for name, states in (("_rows_in", self.samples_in), ("_rows_out", self.samples_out)):
            object.__setattr__(self, name, _frozen_array([s.amplitudes for s in states]))

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
        return tuple(_block_order(len(self.samples_in), self.reference_index))


def _block_order(k: int, ref: int) -> list[int]:
    """The indices of k samples but the reference ``ref``: the blocks' order."""
    return [i for i in range(k) if i != ref]


def _check_dims(cfg: QeConfig, psi: StateVector, target: StateVector | None = None) -> None:
    """The public stages' size checks: ``target``, if given, then ``psi``."""
    if target is not None and target.dim != cfg.dim:
        raise DimensionMismatch(f"target dim {target.dim} != system dim {cfg.dim}")
    if psi.dim != cfg.dim:
        raise DimensionMismatch(f"input dim {psi.dim} != sample dim {cfg.dim}")


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


def _split(joint: np.ndarray, axis: int, lead: int = 1) -> np.ndarray:
    """View ``joint`` as (its ``lead`` run and system axes, ancillas before
    ``axis``, ``axis``, after)."""
    return joint.reshape(*joint.shape[:lead], 2 ** (axis - 1), 2, -1)


def _overlaps(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``<phi|`` against every column of the (D, M) ``rows``, shape (M,).

    One dot of the same operands ``np.tensordot(phi.conj(), ., axes=(0, 0))``
    builds: a lone column keeps its stride, so BLAS sums in the same order.
    Stacks of runs, (T, D) ``phi`` and (T, D, 1) ``rows``, keep them by one dot
    per run on the strided column; over more columns no stacked product does.
    """
    if phi.ndim == 1:
        return np.dot(phi.conj()[None, :], rows)[0]
    return _row_dots(phi.conj(), rows[..., 0])[:, None]


def _controlled_reflect(joint: np.ndarray, phi: np.ndarray, axis: int) -> np.ndarray:
    """Reflect the system register on the ``|1>`` branch of one ancilla axis."""
    out = _split(joint, axis, phi.ndim).copy()
    branch = out[..., 1, :]
    overlap = _overlaps(phi, branch.reshape(*phi.shape, -1))
    overlap = overlap.reshape(*phi.shape[:-1], 1, *branch.shape[-2:])
    out[..., 1, :] = branch - 2.0 * (phi[..., None, None] * overlap)
    return out


def _hadamard(joint: np.ndarray, axis: int, lead: int = 1) -> np.ndarray:
    view = _split(joint, axis, lead)
    s0, s1 = view[..., 0, :], view[..., 1, :]
    out = np.empty_like(view)
    out[..., 0, :] = (s0 + s1) / _SQRT2
    out[..., 1, :] = (s0 - s1) / _SQRT2
    return out


def _run_blocks(joint, samples: np.ndarray, ref: int, reverse=False) -> np.ndarray:
    """Apply the blocks built from ``samples`` (stage 1, or stage 4 reversed).

    Each block is (axis, reflect around ``a``, Hadamard, reflect around
    ``b``) with ``a`` the reference ``samples[ref]`` and ``b`` the block's
    sample; ``reverse`` runs the blocks, and the steps inside each, backwards.
    ``samples`` are amplitude rows: (k, D) for one run, (k, T, D) for a stack
    of runs.
    """
    order = _block_order(len(samples), ref)
    blocks = [(1 + pos, samples[ref], samples[i]) for pos, i in enumerate(order)]
    for axis, a, b in reversed(blocks) if reverse else blocks:
        if reverse:
            a, b = b, a
        joint = _controlled_reflect(joint, a, axis)
        joint = _hadamard(joint, axis, samples.ndim - 1)
        joint = _controlled_reflect(joint, b, axis)
    return joint


def _stage1(samples: np.ndarray, ref: int, psi: np.ndarray) -> np.ndarray:
    """The (D, 2**blocks) joint state after stage 1 on the (k, D) sample rows
    from input amplitudes ``psi`` and every ancilla in ``|->``."""
    joint = psi
    for _ in range(len(samples) - 1):
        joint = np.multiply.outer(joint, _MINUS)
    return _run_blocks(joint, samples, ref).reshape(len(psi), -1)


def run_stage1(cfg: QeConfig, psi: StateVector) -> StateVector:
    """Exact joint state after all stage-1 blocks.

    The joint state lives on system x ancillas with one ancilla per block,
    system register first.
    """
    _check_dims(cfg, psi)
    joint = _stage1(cfg._rows_in, cfg.reference_index, psi.amplitudes)
    return _unchecked(StateVector, amplitudes=joint.reshape(-1))


def stage1_closed_form(cfg: QeConfig, psi: StateVector) -> list[ClosedFormTerm]:
    """Stage-1 output as an exact sum over labeled system states.

    Runs the block recursion symbolically: each block maps a term
    ``c * |x>|bits>`` to five terms whose coefficients involve only inner
    products with the reference and the block's sample.  Terms with equal
    label and ancilla bits are merged; coefficients below 1e-14 (exactly
    cancelled or structurally zero branches) are dropped.
    """
    _check_dims(cfg, psi)
    return _closed_form(cfg._rows_in, cfg.reference_index, psi.amplitudes)


def _closed_form(samples: np.ndarray, ref: int, psi: np.ndarray) -> list[ClosedFormTerm]:
    """``stage1_closed_form`` on the (k, D) sample rows and raw ``psi``."""
    rows = np.vstack([samples, psi])  # INPUT_LABEL, -1, indexes the input

    def ip(a: int, b: int) -> complex:
        return complex(np.vdot(rows[a], rows[b]))

    terms: dict[tuple[int, tuple[int, ...]], complex] = {(INPUT_LABEL, ()): 1.0 + 0j}
    for sample_idx in _block_order(len(samples), ref):
        new: dict[tuple[int, tuple[int, ...]], complex] = {}

        def add(label: int, bits: tuple[int, ...], c: complex) -> None:
            key = (label, bits)
            new[key] = new.get(key, 0.0 + 0j) + c

        for (label, bits), c in terms.items():
            ref_overlap = ip(ref, label)
            add(ref, bits + (0,), c * ref_overlap)
            add(label, bits + (1,), c)
            add(ref, bits + (1,), -c * ref_overlap)
            add(sample_idx, bits + (1,), -2.0 * c * ip(sample_idx, label))
            add(sample_idx, bits + (1,), 2.0 * c * ip(sample_idx, ref) * ref_overlap)
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
    _check_dims(cfg, psi)
    joint = _closed_form_state(cfg._rows_in, cfg.reference_index, psi.amplitudes, terms)
    return StateVector(joint)


def _closed_form_state(samples, ref: int, psi, terms: list | None = None) -> np.ndarray:
    """``closed_form_state``'s amplitudes on the (k, D) sample rows and raw ``psi``."""
    if terms is None:
        terms = _closed_form(samples, ref, psi)
    rows, n_blocks = np.vstack([samples, psi]), len(samples) - 1
    joint = np.zeros((len(psi),) + (2,) * n_blocks, dtype=np.complex128)
    for t in terms:
        if len(t.ancilla_bits) != n_blocks:
            raise DimensionMismatch("term has wrong number of ancilla bits")
        if not INPUT_LABEL <= t.system_label < len(samples):
            raise InvalidQuantumObject(f"term label {t.system_label} names no state")
        joint[(slice(None),) + t.ancilla_bits] += t.coefficient * rows[t.system_label]
    return joint.reshape(-1)


def _through_stage2(samples: np.ndarray, ref: int, psi: np.ndarray) -> tuple:
    """``_stage1``'s joint state, its overlaps with the input reference
    ``samples[ref]`` and the stage-2 pass probability, which raises
    :class:`PostSelectionFailure` below ``POST_SELECT_FLOOR``; no output sample."""
    joint = _stage1(samples, ref, psi)
    # stage 2: measure the projector onto the reference (via an ancilla that
    # is never represented explicitly: outcome 0 projects, outcome 1 deflects)
    anc_overlap = _overlaps(samples[ref], joint)
    pass_prob = float(np.sum(np.abs(anc_overlap) ** 2))
    pass_prob = min(max(pass_prob, 0.0), 1.0)
    if pass_prob < POST_SELECT_FLOOR:
        raise PostSelectionFailure(
            f"stage-2 pass probability {pass_prob:.3e} is negligible",
            pass_prob=pass_prob,
        )
    return joint, anc_overlap, pass_prob


def _final_state(samples: np.ndarray, ref: int, stage2: tuple, outputs=None) -> np.ndarray:
    """The normalised (D, 2**blocks) joint state ``F`` after ``_through_stage2``
    on the input ``samples``: as the failure branch leaves it if ``outputs`` is
    None, else after stages 3 and 4 on the output rows, (k, D) for one run or
    (k, T, D) for T states ``F``.  The system's output is ``F F^dag`` / trace."""
    joint, anc_overlap, pass_prob = stage2
    if outputs is None:
        final = joint - np.multiply.outer(samples[ref], anc_overlap)
        return final / np.linalg.norm(final)
    # the post-stage-2 state is ref (x) omega; stage 3 swaps in the output
    # reference, stage 4 restores the input's information from omega
    out_ref, omega = outputs[ref], anc_overlap / np.sqrt(pass_prob)
    final = _run_blocks(out_ref[..., None] * omega, outputs, ref, reverse=True)
    return final.reshape(*out_ref.shape, -1)


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
    _check_dims(cfg, psi, target)
    t = None if target is None else target.amplitudes
    return _run(cfg._rows_in, cfg._rows_out, cfg.reference_index, psi.amplitudes, rng, t)


def _run(samples_in, samples_out, ref: int, psi, rng=None, target=None) -> QeRunResult:
    """``run_full``'s result on raw rows and amplitudes."""
    stage2 = _through_stage2(samples_in, ref, psi)
    pass_prob = stage2[2]
    stage2_bit = 0 if rng is None or rng.random() < pass_prob else 1
    final = _final_state(samples_in, ref, stage2, None if stage2_bit else samples_out)
    rho = final @ final.conj().T
    rho = (rho + rho.conj().T) * 0.5
    output_mixed = _unchecked(DensityMatrix, matrix=rho / np.trace(rho).real)
    fidelity = None
    if target is not None:
        fidelity = float(np.real(target.conj() @ output_mixed.matrix @ target))
    return QeRunResult(
        output_mixed=output_mixed,
        stage2_bit=stage2_bit,
        p_succ_stage1=pass_prob**2,
        stage2_pass_prob=pass_prob,
        fidelity_vs_target=fidelity,
    )
