"""Unitary device model: generation, evaluation, and the collision check.

A device instance is a Haar-random unitary on ``2**qubits`` dimensions,
addressed by an id derived from its generation seed.  Imperfect devices are
the epsilon-disturbed family ``(1 - eps) U rho U^dag + eps I/D``
(``EpsilonDisturbedChannel``); the ideal device is its ``eps = 0`` member.
Depolarizing noise of strength ``s`` applied after the unitary is the member
at ``eps * s``, so one channel type covers both.

Distance between two devices is measured in the diamond norm.  For unitary
channels the diamond distance has a closed form (see ``uniqueness_distance``)
so no semidefinite programming is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidQuantumObject, PreconditionViolation
from .numerics import (
    DERIVED_TOL,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    _check_qubits,
    _check_seed,
    _disturb_stack,
    _unchecked,
    apply,
    fidelity_mixed,
    haar_unitary,
)


@dataclass(frozen=True)
class QPufGenParams:
    """Parameters of the device generator: register width and RNG seed."""

    qubits: int
    seed: int

    def __post_init__(self) -> None:
        _check_qubits(self.qubits)
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class QPufInstance:
    """A concrete device: an identifier plus its (secret) unitary."""

    id: str
    qubits: int
    unitary: UnitaryMatrix

    def __post_init__(self) -> None:
        if self.unitary.dim != 2**self.qubits:
            raise DimensionMismatch(
                f"unitary dim {self.unitary.dim} != 2**{self.qubits}"
            )

    @property
    def dim(self) -> int:
        return 2**self.qubits


@dataclass(frozen=True, eq=False)
class EpsilonDisturbedChannel:
    """Device ``rho -> (1 - epsilon) U rho U^dag + epsilon I/D``.

    ``epsilon = 0`` recovers the ideal unitary device.  Depolarizing noise of
    strength ``s`` after the unitary is the member at ``epsilon * s``.
    """

    epsilon: float
    unitary: UnitaryMatrix

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidQuantumObject(f"epsilon={self.epsilon} outside [0, 1]")

    @property
    def dim(self) -> int:
        return self.unitary.dim


def qgen(params: QPufGenParams) -> QPufInstance:
    """Draw a fresh device: Haar unitary on ``2**qubits`` dimensions.

    Deterministic in ``params``: the same seed always yields the same device.
    """
    u = haar_unitary(2**params.qubits, np.random.default_rng(params.seed))
    ident = f"qpuf-n{params.qubits}-{params.seed:016x}"
    return QPufInstance(id=ident, qubits=params.qubits, unitary=u)


def qeval(instance: QPufInstance, psi: StateVector) -> StateVector:
    """Evaluate the device on a pure challenge state."""
    return apply(instance.unitary, psi)


def channel_apply(channel: EpsilonDisturbedChannel, rho: DensityMatrix) -> DensityMatrix:
    """Exact output density matrix of the disturbed device."""
    if channel.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} != state dim {rho.dim}")
    out = _disturb_stack(channel.unitary.matrix, rho.matrix, [channel.epsilon])
    return _unchecked(DensityMatrix, matrix=out[0])


def check_collision(
    channel: EpsilonDisturbedChannel,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    delta_c: float,
) -> bool:
    """Do delta_c-distinguishable inputs stay distinguishable?

    Precondition: ``F(rho, sigma) <= 1 - delta_c``, with ``0 <= delta_c <= 1``.
    """
    if not 0.0 <= delta_c <= 1.0:
        raise InvalidQuantumObject(f"delta_c={delta_c} outside [0, 1]")
    f_in = fidelity_mixed(rho, sigma)
    if f_in > 1.0 - delta_c + DERIVED_TOL:
        raise PreconditionViolation(
            f"inputs have fidelity {f_in:.6f} > 1 - delta_c = {1.0 - delta_c}"
        )
    f_out = fidelity_mixed(channel_apply(channel, rho), channel_apply(channel, sigma))
    return f_out <= 1.0 - delta_c + DERIVED_TOL


def uniqueness_distance(a: QPufInstance, b: QPufInstance) -> float:
    """Diamond distance between two unitary devices, in ``[0, 2]``.

    For unitary channels ``U``, ``V`` the diamond distance equals
    ``2 * sqrt(1 - delta**2)`` where ``delta`` is the Euclidean distance from
    the origin to the convex hull of the eigenvalues of ``U^dag V``.  The
    eigenvalues lie on the unit circle, so the hull either contains the
    origin (``delta = 0``, distance 2 -- perfectly distinguishable with an
    entangled probe) or the spectrum fits in an arc of width ``w < pi`` and
    the nearest hull point sits on the chord between the arc endpoints,
    giving ``delta = cos(w / 2)`` and distance ``2 * sin(w / 2)``.  See the
    README for the derivation.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"device dims differ: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvals(a.unitary.matrix.conj().T @ b.unitary.matrix)
    phases = np.sort(np.angle(eigs))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    largest_gap = float(np.max(gaps))
    if largest_gap <= np.pi:
        return 2.0
    width = 2.0 * np.pi - largest_gap
    return float(2.0 * np.sin(width / 2.0))
