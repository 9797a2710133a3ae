"""Exact linear-algebra layer: states, channels' raw material, and metrics.

All simulation in this package is dense, double-precision and exact up to
floating point; nothing here is sampled except the Haar draws, which take an
explicit ``numpy.random.Generator``.

Conventions fixed once for the whole package:

* fidelity between pure states is the *squared* overlap ``|<a|b>|^2``; the
  mixed-state fidelity reduces to it on rank-one inputs,
* a register on ``n`` qubits has dimension ``2**n``,
* state equality is always judged via fidelity, never componentwise, so
  global phase is irrelevant everywhere.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
)

#: tolerance used when validating freshly constructed objects; each check is
#: written ``not (x <= tol)`` so that NaN fails it instead of passing
CONSTRUCTION_TOL = 1e-10
#: tolerance used when asserting derived quantities in tests and checks
DERIVED_TOL = 1e-8
#: singular values / residual norms below this count as numerically zero
RANK_TOL = 1e-9

_DEFAULT_MAX_DIM = 16384


def max_dim() -> int:
    """Simulation size cap: total dimension of any constructed object.

    Configurable through the ``QPUF_MAX_DIM`` environment variable.
    """
    raw = os.environ.get("QPUF_MAX_DIM")
    try:
        return _DEFAULT_MAX_DIM if raw is None else int(raw)
    except ValueError:
        raise DimensionCapExceeded(f"QPUF_MAX_DIM is not an integer: {raw!r}") from None


def _frozen_array(values, shape_kind: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if shape_kind == "vector" and arr.ndim != 1:
        raise InvalidQuantumObject(f"expected a 1-d array, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise InvalidQuantumObject(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on a Hilbert space of dimension ``dim``."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.amplitudes, "vector")
        object.__setattr__(self, "amplitudes", arr)
        if arr.size == 0:
            raise InvalidQuantumObject("state vector must be non-empty")
        norm = float(np.linalg.norm(arr))
        if not (abs(norm - 1.0) <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject(f"state vector norm {norm!r} is not 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.matrix, "matrix")
        object.__setattr__(self, "matrix", arr)
        _check_density(arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        return cls(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _check_density(arr: np.ndarray) -> None:
    """Raise unless every matrix of the ``(..., D, D)`` stack is a density matrix.

    Hermitian and unit trace within ``CONSTRUCTION_TOL``, no eigenvalue below
    ``-RANK_TOL``; each test runs over the whole stack at once.  The
    ``eigvalsh`` is not negligible: one call per matrix was a third of the
    time of the c08 disturbance audits, which now validate whole stacks.
    Whole-array ``max``/``min`` keep a lone matrix as fast as 2-d code;
    reducing over ``axis=(-2, -1)`` costs several microseconds more.
    """
    if not (np.abs(arr - arr.conj().swapaxes(-2, -1)).max() <= CONSTRUCTION_TOL):
        raise InvalidQuantumObject("density matrix is not Hermitian")
    tr = arr.trace(axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if not (dev.max() <= CONSTRUCTION_TOL):
        bad = complex(tr.flat[np.argmax(dev)])
        raise InvalidQuantumObject(f"density matrix trace {bad!r} is not 1")
    if not (np.linalg.eigvalsh(arr).min() >= -RANK_TOL):
        raise InvalidQuantumObject("density matrix has a negative eigenvalue")


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square matrix with ``U^dag U = I`` within construction tolerance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.matrix, "matrix")
        object.__setattr__(self, "matrix", arr)
        dev = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if not (dev <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject(f"matrix is not unitary (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent operator together with its rank."""

    matrix: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        arr = _frozen_array(self.matrix, "matrix")
        object.__setattr__(self, "matrix", arr)
        if not (np.max(np.abs(arr - arr.conj().T)) <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject("projector is not Hermitian")
        if not (np.max(np.abs(arr @ arr - arr)) <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject("projector is not idempotent")
        object.__setattr__(self, "rank", int(round(float(np.trace(arr).real))))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def apply(u: UnitaryMatrix, psi: StateVector) -> StateVector:
    """Evolve ``psi`` by ``u``; norm is preserved by unitarity."""
    if u.dim != psi.dim:
        raise DimensionMismatch(f"unitary dim {u.dim} != state dim {psi.dim}")
    return StateVector(u.matrix @ psi.amplitudes)


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """Squared overlap ``|<a|b>|^2``."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Computed through eigendecompositions rather than a matrix square root of
    the product, which keeps the result real and stable for near-singular
    inputs.  Reduces to :func:`fidelity_pure` on rank-one arguments.

    Eigenvalues at or below ``1e-12`` times the largest are round-off and are
    set to zero before any square root: the root of a 1e-16 residue is 1e-8,
    which would push identical pure states past ``F = 1 + DERIVED_TOL``.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"density dims differ: {rho.dim} vs {sigma.dim}")
    return float(_fidelity_stack(rho.matrix, sigma.matrix))


def _fidelity_stack(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """:func:`fidelity_mixed` of each pair of two ``(..., D, D)`` stacks.

    LAPACK and BLAS treat each matrix of a stack on its own, so every entry
    is bit for bit the fidelity of that pair alone.
    """
    w, v = np.linalg.eigh(rhos)
    root_w = np.sqrt(_drop_round_off(w))[..., np.newaxis, :]
    sqrt_rho = (v * root_w) @ v.conj().swapaxes(-2, -1)
    inner = sqrt_rho @ sigmas @ sqrt_rho
    roots = np.sqrt(_drop_round_off(np.linalg.eigvalsh(inner))).sum(axis=-1)
    # libm pow, as a scalar ``** 2`` takes: np.square rounds about one value
    # in a thousand to the neighbouring double
    squares = [r**2 for r in roots.ravel().tolist()]
    return np.array(squares).reshape(roots.shape)


def _drop_round_off(w: np.ndarray) -> np.ndarray:
    """Zero the ascending eigenvalues ``w`` at or below 1e-12 of the largest.

    ``w`` may be a stack; each row keeps its own threshold.
    """
    return np.where(w > 1e-12 * w[..., -1:], w, 0.0)


def sqrt_fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Square root of :func:`fidelity_mixed`; the jointly concave form."""
    return float(np.sqrt(fidelity_mixed(rho, sigma)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace distance ``0.5 * ||rho - sigma||_1``.

    For pure states this equals ``sqrt(1 - F)`` with the package's squared
    overlap fidelity ``F``.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"density dims differ: {rho.dim} vs {sigma.dim}")
    return float(_trace_distance_stack(rho.matrix, sigma.matrix))


def _trace_distance_stack(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """:func:`trace_distance` of each pair of two ``(..., D, D)`` stacks."""
    return 0.5 * np.abs(np.linalg.eigvalsh(rhos - sigmas)).sum(axis=-1)


def _disturb_stack(
    u: np.ndarray, rhos: np.ndarray, epsilons: np.ndarray
) -> np.ndarray:
    """``(1 - eps) u rho u^dag + eps I/D`` for each ``eps`` of ``epsilons``.

    ``u`` and ``rhos`` are ``(..., D, D)`` stacks and ``epsilons`` is
    ``(..., C)``; returns ``(..., C, D, D)``.  The unitary part is computed
    once and shared by the ``C`` members.  Not validated.
    """
    dim = rhos.shape[-1]
    ideal = (u @ rhos @ u.conj().swapaxes(-2, -1))[..., np.newaxis, :, :]
    eps = np.asarray(epsilons, dtype=np.float64)[..., np.newaxis, np.newaxis]
    return (1.0 - eps) * ideal + eps * (np.eye(dim) / dim)


def span_projector(states: Sequence[StateVector]) -> Projector:
    """Orthogonal projector onto the span of the given states.

    Uses modified Gram-Schmidt with one re-orthogonalization pass; input
    vectors whose residual norm falls below ``RANK_TOL`` are treated as
    linearly dependent and dropped, so duplicates collapse to rank 1.
    """
    if not states:
        raise InvalidQuantumObject("span of an empty family is undefined")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("states span different Hilbert spaces")
    basis: list[np.ndarray] = []
    for s in states:
        v = s.amplitudes.copy()
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for e in basis:
                v -= np.vdot(e, v) * e
        norm = float(np.linalg.norm(v))
        if norm > RANK_TOL:
            basis.append(v / norm)
    proj = np.zeros((dim, dim), dtype=np.complex128)
    for e in basis:
        proj += np.outer(e, e.conj())
    return Projector(proj)


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of i.i.d. complex Gaussians."""
    if dim < 1:
        raise InvalidQuantumObject(f"dimension must be positive, got {dim}")
    if dim > max_dim():
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {max_dim()}")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / np.linalg.norm(z))


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-random unitary via Ginibre matrix, QR, and phase normalization.

    The QR factor alone is not Haar distributed; multiplying each column by
    the phase of the corresponding diagonal entry of ``R`` fixes the measure
    (Mezzadri, math-ph/0609050).
    """
    return UnitaryMatrix(_haar_unitary_stack(dim, [rng])[0])


def _haar_unitary_stack(
    dim: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """One Haar unitary per generator, stacked and not yet validated.

    Returns shape ``(len(rngs), dim, dim)``.  Each generator fills its own
    Ginibre matrix, then one ``np.linalg.qr`` and one phase fix run over the
    whole stack.  LAPACK factors each matrix of the stack on its own, so
    entry ``k`` is bit for bit what :func:`haar_unitary` returns for
    ``rngs[k]``.
    """
    if dim < 1:
        raise InvalidQuantumObject(f"dimension must be positive, got {dim}")
    if dim > max_dim():
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {max_dim()}")
    z = np.empty((len(rngs), dim, dim), dtype=np.complex128)
    for k, rng in enumerate(rngs):
        z[k] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z /= np.sqrt(2.0)
    # a lone matrix is factored unstacked: at D=64 a stack of one made each
    # haar_unitary call 7% slower, for the same bits
    q, r = np.linalg.qr(z[0] if len(rngs) == 1 else z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., np.newaxis, :]
    return q.reshape(z.shape)
