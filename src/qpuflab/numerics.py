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

import functools
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

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


def _shown(size) -> str:
    """``size`` for a message; ``str`` refuses integers of over 4300 digits."""
    long = isinstance(size, int) and size.bit_length() > 64
    return f"({'-' * (size < 0)}{size.bit_length()}-bit integer)" if long else str(size)


def _as_int(value, what: str) -> int:
    """``value`` as an ``int`` by ``operator.index``; a float, NaN too, raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidQuantumObject(f"{what} must be an integer: {value!r}") from None


def _check_seed(seed) -> None:
    """The seed rule: an integer with ``0 <= seed < 2**64``."""
    if not 0 <= _as_int(seed, "seed") < 2**64:
        raise InvalidQuantumObject("seed must fit in an unsigned 64-bit integer")


@functools.cache
def _hash_consts(w: int) -> np.ndarray:
    """numpy's ``SeedSequence`` constants for ``w``-word rows, a column per pool
    word: ``mix``'s multipliers and shift, then the xor and multiplier of each
    ``hashmix`` step: the pool's first hashing, ``generate_state``'s halves, the
    mixing in of each word ``s`` (in a round, column ``s`` is unused)."""
    a = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) % 2**32 for i in range(4 * max(w, 4) + 1)]
    b = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)]
    rounds = [[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)] for s in range(4)]
    steps = [(a, range(4)), (b, range(4)), (b, range(4, 8))] + [(a, r) for r in rounds]
    steps += [(a, range(4 * s, 4 * s + 4)) for s in range(4, w)]
    groups = [[0xCA01F9DD] * 4, [0x4973F715] * 4, [16] * 4]
    groups += [[c[i + m] for i in step] for c, step in steps for m in (0, 1)]
    consts = np.array(groups, dtype=np.uint32)
    consts.setflags(write=False)  # every caller shares the cached array
    return consts


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of a
    ``(T, W)`` uint32 array of assembled entropy, as ``(T, 4)`` words: numpy's
    hash (pool of 4, a short row zero-padded) over all rows at once."""
    # numpy keeps this hash stable across releases (NEP 19), so these stay the
    # words that default_rng seeds PCG64 with.  Every constant is spread over
    # the T rows: numpy's loops run far faster on one shape than on a broadcast
    t, w = entropy.shape
    k = np.empty(_hash_consts(w).shape + (t,), dtype=np.uint32)
    k[...] = _hash_consts(w)[..., None]

    def hashmix(values, j):  # numpy's hashmix at step j's constants
        h = values ^ k[3 + 2 * j]
        h *= k[4 + 2 * j]
        return h ^ h >> k[2]

    def mix(pool, values, j):  # numpy's mix(pool, hashmix(values)), in place
        pool[...] = pool * k[0] - hashmix(values, j) * k[1]
        pool ^= pool >> k[2]

    pool = np.zeros((4, t), dtype=np.uint32)
    pool[:min(w, 4)] = entropy[:, :4].T
    pool = hashmix(pool, 0)
    for src in range(4):  # each pool word into every other, in numpy's order
        word = pool[src].copy()
        mix(pool, word, 3 + src)
        pool[src] = word
    for src in range(4, w):  # each word past the pool into all four
        mix(pool, entropy[:, src], 3 + src)
    g = np.concatenate((hashmix(pool, 1), hashmix(pool, 2)))
    # numpy pairs the 8 words as little-endian uint64s, whatever the machine
    return g.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Hashed(np.random.bit_generator.ISpawnableSeedSequence):
    """``SeedSequence(entropy, spawn_key=spawn_key)`` with its PCG64 words from
    ``_seed_words``; ``spawn`` and other states come from ``real``, built when asked."""

    def __init__(self, words: np.ndarray, entropy: int, spawn_key: tuple = ()) -> None:
        self.words, self.entropy, self.spawn_key = words, entropy, spawn_key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self.words
        return self.real.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.real.spawn(n_children)

    @functools.cached_property
    def real(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key)


def _stream(words: np.ndarray, entropy: int, key: tuple = ()) -> np.random.Generator:
    """``default_rng(SeedSequence(entropy, spawn_key=key))`` on its ``words``."""
    return np.random.Generator(np.random.PCG64(_Hashed(words, entropy, key)))


def _check_dim(dim, least: int = 1) -> None:
    """The size rule: raise unless ``dim`` is an integer in ``least..max_dim()``."""
    if not _as_int(dim, "dimension") >= least:
        raise InvalidQuantumObject(f"dimension {_shown(dim)} is below {least}")
    if not dim <= (cap := max_dim()):
        raise DimensionCapExceeded(f"dimension {_shown(dim)} exceeds cap {cap}")


def _check_qubits(qubits, least: int = 1, factor: int = 1) -> None:
    """The size rule for ``factor * 2**qubits`` dimensions, never forming
    ``2**qubits``: it exceeds the cap iff ``2**qubits > room = cap // factor``,
    that is iff ``room < 1`` or ``qubits >= room.bit_length()``."""
    if not _as_int(qubits, "qubits") >= least:
        raise InvalidQuantumObject(f"qubits must be >= {least}, got {_shown(qubits)}")
    room = (cap := max_dim()) // factor
    if room < 1 or qubits >= room.bit_length():
        size = ("" if factor == 1 else f"{factor} * ") + f"2**{_shown(qubits)}"
        raise DimensionCapExceeded(f"dimension {size} exceeds cap {cap}")


def _frozen_array(values, shape_kind: str = "") -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if shape_kind == "vector" and arr.ndim != 1:
        raise InvalidQuantumObject(f"expected a 1-d array, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise InvalidQuantumObject(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _gram_deviation(rows: np.ndarray) -> float:
    """``max |rows* rows^T - I|`` of ``(r, D)`` rows; NaN propagates, r = 0 reads 0."""
    return float(np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max(initial=0.0))


def _unchecked(cls, **fields):
    """``cls(**fields)`` minus ``__post_init__``, for values an invariant-keeping
    step built from checked inputs; arrays still become read-only complex128 copies."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        frozen = _frozen_array(value) if isinstance(value, np.ndarray) else value
        object.__setattr__(obj, name, frozen)
    return obj


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
        if not (np.abs(arr - arr.conj().T).max() <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject("density matrix is not Hermitian")
        tr = complex(np.trace(arr))
        if not (abs(tr - 1.0) <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject(f"density matrix trace {tr!r} is not 1")
        if not (np.linalg.eigvalsh(arr).min() >= -RANK_TOL):
            raise InvalidQuantumObject("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        return _unchecked(cls, matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square matrix with ``U^dag U = I`` within construction tolerance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.matrix, "matrix")
        object.__setattr__(self, "matrix", arr)
        dev = _gram_deviation(arr.T)  # U^dag U = I: orthonormal columns
        if not (dev <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject(f"matrix is not unitary (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector, held as its orthonormal basis rows ``(rank, dim)``."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.basis)
        object.__setattr__(self, "basis", arr)
        if arr.ndim != 2:
            raise InvalidQuantumObject(f"expected a 2-d array, got shape {arr.shape}")
        dev = _gram_deviation(arr)
        if not (dev <= CONSTRUCTION_TOL):
            raise InvalidQuantumObject(f"rows not orthonormal (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def apply(u: UnitaryMatrix, psi: StateVector) -> StateVector:
    """Evolve ``psi`` by ``u``; norm is preserved by unitarity."""
    if u.dim != psi.dim:
        raise DimensionMismatch(f"unitary dim {u.dim} != state dim {psi.dim}")
    return _unchecked(StateVector, amplitudes=u.matrix @ psi.amplitudes)


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """Squared overlap ``|<a|b>|^2``."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[t] . b[t]``, unconjugated, over the rows of two ``(T, D)`` stacks by
    one BLAS dot per row: ``_row_dots(x.conj(), y)[t]`` has the bits of
    ``np.vdot(x[t], y[t])``, and on ``x.real`` or ``x.imag`` it gives the real
    dots ``np.linalg.norm(x[t])`` takes."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def _norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a ``(T, D)`` stack, bit for bit, by its dots."""
    re, im = rows.real, rows.imag
    return np.sqrt(_row_dots(re, re) + _row_dots(im, im))


def _normalised(rows: np.ndarray) -> np.ndarray:
    """Each row ``x`` of a ``(T, D)`` stack as ``x / np.linalg.norm(x)``, bit for
    bit.  Pass only drawn rows: a zero padding row gives NaN."""
    return rows / _norms(rows)[:, np.newaxis]


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
    """Orthogonal projector onto the span of the given states, as its basis.

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
    return Projector(np.array(basis))


def _complement_vector(basis, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector orthogonal to the r orthonormal ``basis`` rows.

    The rows must span less than the whole space (r < ``dim``), or no draw
    leaves a residual.  Not validated.
    """
    while True:
        v = _haar_vector(dim, rng)
        for e in basis:
            v -= np.vdot(e, v) * e
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:  # fails only on a measure-zero draw
            return v / norm


def _complement_rows(bases: np.ndarray, rngs) -> np.ndarray:
    """The one-vector complement draw above, on each ``(r, D)`` basis of a
    ``(T, r, D)`` stack and its stream, bit for bit, with ``np.vdot``'s projections
    on the stack; a short residual is redrawn by this call on its basis and stream alone."""
    v = _haar_rows(bases.shape[2], rngs)
    for e, e_conj in zip(bases.transpose(1, 0, 2), bases.conj().transpose(1, 0, 2)):
        v -= _row_dots(e_conj, v)[:, np.newaxis] * e
    norm = _norms(v)
    for t in np.flatnonzero(~(norm > 1e-6)):  # the redraw comes normalised
        v[t], norm[t] = _complement_rows(bases[t:t + 1], rngs[t:t + 1])[0], 1.0
    return v / norm[:, np.newaxis]


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of i.i.d. complex Gaussians."""
    _check_dim(dim)
    return _unchecked(StateVector, amplitudes=_haar_vector(dim, rng))


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The amplitudes :func:`haar_state` returns, with the same draws; not
    validated, and the caller owns the (writable) array."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _haar_rows(dim: int, rngs) -> np.ndarray:
    """``_haar_vector(dim, rng)`` of each stream, bit for bit, as ``(T, D)`` rows:
    one ``standard_normal(2D)`` call per stream, its halves the parts of one complex
    stack (``re + 1j * im``'s bits on nonzero parts), then arithmetic on the stack."""
    raw = np.empty((len(rngs), 2 * dim))
    for row, rng in zip(raw, rngs):
        rng.standard_normal(out=row)
    z = np.empty((len(rngs), dim), dtype=np.complex128)
    z.real, z.imag = raw[:, :dim], raw[:, dim:]
    return _normalised(z)


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-random unitary via Ginibre matrix, QR, and phase normalization.

    The QR factor alone is not Haar distributed; multiplying each column by
    the phase of the corresponding diagonal entry of ``R`` fixes the measure
    (Mezzadri, math-ph/0609050).
    """
    _check_dim(dim)
    return _unchecked(UnitaryMatrix, matrix=_haar_qr(_ginibre(dim, rng)[np.newaxis])[0])


def _ginibre(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """The complex Gaussian ``dim x cols`` matrix (square by default) that one
    Haar unitary or isometry is factored from."""
    shape = (dim, dim if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_qr(z: np.ndarray) -> np.ndarray:
    """Haar isometries from a ``(T, D, k)`` stack of :func:`_ginibre` draws.

    Entry ``t`` is distributed as the first ``k <= D`` columns of a Haar
    unitary.  Overwrites ``z``.  One ``np.linalg.qr`` and one phase fix run
    over the whole stack; LAPACK factors each matrix of it on its own, so
    entry ``t`` is bit for bit the isometry of draw ``t`` alone.  The float view
    times ``1/sqrt(2)`` is ``z / np.sqrt(2.0)``, whose complex loop scales ``a + b*0``
    by ``1/c``, bit for bit on nonzero parts (an exact ±0 part may change sign).
    """
    parts = z.view(np.float64)
    parts *= 1.0 / np.sqrt(2.0)
    # a lone matrix is factored unstacked: at D=64 a stack of one made each
    # haar_unitary call 7% slower, for the same bits
    q, r = np.linalg.qr(z[0] if len(z) == 1 else z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., np.newaxis, :]
    return q.reshape(z.shape)
