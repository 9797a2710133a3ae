"""Unitary device model: generation, evaluation, and requirement checks.

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

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
    PreconditionViolation,
)
from .numerics import (
    CONSTRUCTION_TOL,
    DERIVED_TOL,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    apply,
    fidelity_mixed,
    haar_unitary,
    max_dim,
)


@dataclass(frozen=True)
class QPufGenParams:
    """Parameters of the device generator: register width and RNG seed."""

    qubits: int
    seed: int

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise InvalidQuantumObject(f"qubits must be >= 1, got {self.qubits}")
        if 2**self.qubits > max_dim():
            raise DimensionCapExceeded(
                f"2**{self.qubits} exceeds the simulation cap {max_dim()}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidQuantumObject("seed must fit in an unsigned 64-bit integer")


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


@dataclass(frozen=True)
class RequirementThresholds:
    """Robustness / uniqueness / collision thresholds for device audits.

    ``delta_c`` and ``delta_u`` may not exceed ``1 - delta_r``: states that an
    honest device must map indistinguishably cannot also be required to stay
    distinguishable.
    """

    delta_r: float
    delta_u: float
    delta_c: float

    def __post_init__(self) -> None:
        for name in ("delta_r", "delta_u", "delta_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidQuantumObject(f"{name}={v} outside [0, 1]")
        if self.delta_c > 1.0 - self.delta_r + CONSTRUCTION_TOL:
            raise InvalidQuantumObject("delta_c may not exceed 1 - delta_r")
        if self.delta_u > 1.0 - self.delta_r + CONSTRUCTION_TOL:
            raise InvalidQuantumObject("delta_u may not exceed 1 - delta_r")


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
    rng = np.random.default_rng(params.seed)
    u = haar_unitary(2**params.qubits, rng)
    ident = f"qpuf-n{params.qubits}-{params.seed:016x}"
    return QPufInstance(id=ident, qubits=params.qubits, unitary=u)


def qeval(instance: QPufInstance, psi: StateVector) -> StateVector:
    """Evaluate the device on a pure challenge state."""
    return apply(instance.unitary, psi)


def channel_apply(channel: EpsilonDisturbedChannel, rho: DensityMatrix) -> DensityMatrix:
    """Exact output density matrix of the disturbed device."""
    if channel.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} != state dim {rho.dim}")
    u = channel.unitary.matrix
    ideal = u @ rho.matrix @ u.conj().T
    eps = channel.epsilon
    mixed = np.eye(rho.dim) / rho.dim
    return DensityMatrix((1.0 - eps) * ideal + eps * mixed)


def _device_output(
    device: Union[QPufInstance, EpsilonDisturbedChannel], rho: DensityMatrix
) -> DensityMatrix:
    if isinstance(device, QPufInstance):
        device = EpsilonDisturbedChannel(0.0, device.unitary)
    return channel_apply(device, rho)


def check_robustness(
    device: Union[QPufInstance, EpsilonDisturbedChannel],
    rho: DensityMatrix,
    sigma: DensityMatrix,
    delta_r: float,
) -> bool:
    """Do delta_r-indistinguishable inputs stay indistinguishable?

    Precondition: ``F(rho, sigma) >= delta_r``; violating it raises rather
    than silently reporting a pass/fail about the wrong regime.
    """
    f_in = fidelity_mixed(rho, sigma)
    if f_in < delta_r - DERIVED_TOL:
        raise PreconditionViolation(
            f"inputs have fidelity {f_in:.6f} < delta_r={delta_r}"
        )
    f_out = fidelity_mixed(_device_output(device, rho), _device_output(device, sigma))
    return f_out >= delta_r - DERIVED_TOL


def check_collision(
    device: Union[QPufInstance, EpsilonDisturbedChannel],
    rho: DensityMatrix,
    sigma: DensityMatrix,
    delta_c: float,
) -> bool:
    """Do delta_c-distinguishable inputs stay distinguishable?

    Precondition: ``F(rho, sigma) <= 1 - delta_c``.
    """
    f_in = fidelity_mixed(rho, sigma)
    if f_in > 1.0 - delta_c + DERIVED_TOL:
        raise PreconditionViolation(
            f"inputs have fidelity {f_in:.6f} > 1 - delta_c = {1.0 - delta_c}"
        )
    f_out = fidelity_mixed(_device_output(device, rho), _device_output(device, sigma))
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


def to_json(instance: QPufInstance) -> str:
    """Serialize a device to JSON: id, qubit count, row-major [re, im] pairs."""
    mat = instance.unitary.matrix
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return json.dumps(
        {"id": instance.id, "n": instance.qubits, "unitary": rows},
        sort_keys=True,
    )


def from_json(text: str) -> QPufInstance:
    """Load a device from :func:`to_json` output, re-validating unitarity."""
    obj = json.loads(text)
    try:
        n = int(obj["n"])
        ident = str(obj["id"])
        rows = obj["unitary"]
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidQuantumObject(f"malformed device JSON: {exc}") from exc
    return QPufInstance(id=ident, qubits=n, unitary=UnitaryMatrix(mat))
