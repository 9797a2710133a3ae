"""Adversary strategies for the unforgeability games.

Baseline adversaries only ever use what the game hands them: oracle
responses and the challenge object.  Two strategies model explicitly granted
extra power and say so in their contracts:

* ``TomographyAdversary`` reconstructs the device column by column and must
  be constructed with a :class:`PrivilegedReadout` grant (exact amplitude
  access to response states -- physically an exponential-resource attacker).
* ``SubspaceAdversary`` is informed: it receives classical descriptions of
  its challenge and of the learned response basis, the strongest form of the
  partial-knowledge attacker the selective-game bound is proved against.

``QeForger`` is the existential-game attack built on the emulation circuit:
two learning queries, a challenge orthogonal to the first one, and a
guaranteed fidelity floor that reaches exact forgery for mu <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emulator import QeConfig, _final_state, _through_stage2, run_full
from .errors import (
    BudgetRefusal,
    DimensionMismatch,
    InvalidQuantumObject,
    PreconditionViolation,
    PrivilegeRequired,
)
from .games import QEX, QSEL, SealedOracle
from .numerics import (
    CONSTRUCTION_TOL,
    StateVector,
    UnitaryMatrix,
    _as_int,
    _check_dim,
    _complement_rows,
    _gram_deviation,
    _normalised,
    _unchecked,
    apply,
    haar_state,
)
from .qpuf import QPufInstance, qeval


def _basis_state(dim: int, index: int) -> StateVector:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return _unchecked(StateVector, amplitudes=v)


class RandomGuesser:
    """No learning, Haar-random guess; the floor every bound must beat."""

    def learn(
        self,
        oracle: SealedOracle,
        dim: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None:
        pass

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        return haar_state(challenge.dim, rng)


# ---------------------------------------------------------------------------
# partial-knowledge adversary


@dataclass(frozen=True, eq=False)
class SubspaceKnowledge:
    """Orthonormal input states and their (orthonormal) device images."""

    dim: int
    basis_in: tuple[StateVector, ...]
    basis_out: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        _as_int(self.dim, "dimension")
        object.__setattr__(self, "basis_in", tuple(self.basis_in))
        object.__setattr__(self, "basis_out", tuple(self.basis_out))
        if len(self.basis_in) != len(self.basis_out):
            raise DimensionMismatch("basis_in and basis_out lengths differ")
        for family in (self.basis_in, self.basis_out):
            if any(s.dim != self.dim for s in family):
                raise DimensionMismatch("basis state dimension mismatch")
            rows = np.array([s.amplitudes for s in family])  # (d, D), or (0,) at d = 0
            if not _gram_deviation(rows) <= 1e-9:
                raise InvalidQuantumObject("basis family is not orthonormal")

    @property
    def d(self) -> int:
        return len(self.basis_in)


class SubspaceAdversary:
    """Knows the device's action on a d-dimensional subspace, nothing else.

    The in-span component of the challenge is mapped through the learned
    images; the orthogonal remainder is replaced by a Haar draw from the
    complement of the learned image subspace, with the original weights.
    Reading the challenge's amplitudes is the granted extra knowledge.
    Queries and guess are those of ``_SubspaceChunk(d)`` on one game.
    """

    def __init__(self, d: int) -> None:
        if _as_int(d, "subspace dimension") < 0:
            raise InvalidQuantumObject(f"subspace dimension {d} is negative")
        self.knowledge: SubspaceKnowledge | None = None
        self._form = _SubspaceChunk(d)
        # lets estimate_win_rate play a chunk of these games as arrays; a
        # subclass may change learn or respond, so it plays game by game
        self._chunk_form = self._form if type(self) is SubspaceAdversary else None

    def learn(
        self,
        oracle: SealedOracle,
        dim: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None:
        rows, _ = self._form.inputs(dim)
        basis_in = tuple(_unchecked(StateVector, amplitudes=q) for q in rows)
        basis_out = tuple(oracle.query(b) for b in basis_in)
        self.knowledge = _unchecked(
            SubspaceKnowledge, dim=dim, basis_in=basis_in, basis_out=basis_out
        )

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        kn = self.knowledge
        if kn is None:
            raise InvalidQuantumObject("respond called before learn")
        if challenge.dim != kn.dim:
            raise DimensionMismatch(f"challenge dim {challenge.dim} != space {kn.dim}")
        rows = np.array([b.amplitudes for b in kn.basis_out]).reshape(1, kn.d, kn.dim)
        guess = self._form.respond(challenge.amplitudes[np.newaxis], rows, [rng])[0]
        return _unchecked(StateVector, amplitudes=guess)


@dataclass(frozen=True)
class _SubspaceChunk:
    """The queries ``e_0 .. e_{d-1}`` (``_play_chunk`` reads their images as the
    blocks' first d columns) and the guess rule of ``SubspaceAdversary(d)``
    over a chunk of ``qsel`` games as arrays; one game is a chunk of one."""

    d: int
    mode = QSEL

    def inputs(self, dim: int) -> tuple[np.ndarray, None]:
        """The ``(d, D)`` query rows, and no challenge: the challenger draws it."""
        if self.d > dim:
            raise InvalidQuantumObject(f"subspace dim {self.d} exceeds space {dim}")
        return np.eye(self.d, dim, dtype=np.complex128), None

    def respond(self, challenges: np.ndarray, responses: np.ndarray, rngs) -> np.ndarray:
        """``(T, D)`` guesses from the challenges, the ``(T, d, D)`` responses
        to the queries and each game's random stream; never a device."""
        dim = challenges.shape[1]
        # <e_j|psi> is psi_j exactly; in_weight sums Python floats, as a loop
        # of vdot does: numpy's array abs and square round differently
        guesses = np.zeros_like(challenges)
        in_weight = np.zeros(len(challenges))
        for j in range(self.d):
            guesses += challenges[:, j, np.newaxis] * responses[:, j]
            in_weight += [abs(c) ** 2 for c in challenges[:, j].tolist()]
        rest = 1.0 - np.minimum(in_weight, 1.0)
        rows = np.flatnonzero(rest > 1e-12) if self.d < dim else []
        # every game drawing, the usual case, reads the stack itself, no copy
        bases = responses if len(rows) == len(responses) else responses[rows]
        draws = _complement_rows(bases, [rngs[t] for t in rows])
        guesses[rows] += np.sqrt(rest[rows])[:, np.newaxis] * draws
        return _normalised(guesses)


# ---------------------------------------------------------------------------
# full-tomography adversary (privileged)


class PrivilegedReadout:
    """Grant of exact amplitude access to quantum states.

    Physically this stands for unbounded process tomography; constructing
    one is the explicit opt-in required by adversaries that need it.
    """

    def amplitudes(self, state: StateVector) -> np.ndarray:
        return state.amplitudes.copy()


class TomographyAdversary:
    """Reconstructs the device exactly from all basis-state responses.

    Needs ``2**n`` learning queries and a :class:`PrivilegedReadout`; wins
    every selective game at any threshold once it has both.
    """

    def __init__(self, readout: PrivilegedReadout) -> None:
        if not isinstance(readout, PrivilegedReadout):
            raise PrivilegeRequired(
                "tomography requires an explicit PrivilegedReadout grant"
            )
        self._readout = readout
        self.reconstructed: UnitaryMatrix | None = None

    def learn(
        self,
        oracle: SealedOracle,
        dim: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None:
        if budget < dim:
            raise BudgetRefusal(
                f"tomography needs {dim} queries, budget allows {budget}"
            )
        cols = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(dim):
            response = oracle.query(_basis_state(dim, i))
            cols[:, i] = self._readout.amplitudes(response)
        self.reconstructed = _unchecked(UnitaryMatrix, matrix=cols)

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        if self.reconstructed is None:
            raise InvalidQuantumObject("respond called before learn")
        return apply(self.reconstructed, challenge)


# ---------------------------------------------------------------------------
# emulation forger


@dataclass(frozen=True, eq=False)
class ForgerPlan:
    """The two learning queries and the challenge of the emulation attack.

    ``phi1`` is ``|0>`` and ``phi3`` (the challenge) is ``|1>``; against a
    Haar device every orthogonal pair is equivalent.  ``phi2`` is their
    superposition -- balanced for mu <= 1/2, else weighted so that
    ``F(phi3, phi2) = 1 - mu`` exactly.  ``alpha`` and ``beta`` are the
    overlaps of ``phi2`` with the challenge and with ``phi1``; they satisfy
    ``alpha**2 + beta**2 = 1``.
    """

    mu: float
    phi1: StateVector
    phi2: StateVector
    phi3: StateVector
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if abs(self.alpha**2 + self.beta**2 - 1.0) > CONSTRUCTION_TOL:
            raise InvalidQuantumObject("overlaps do not satisfy alpha^2+beta^2=1")
        if abs(np.vdot(self.phi1.amplitudes, self.phi3.amplitudes)) > CONSTRUCTION_TOL:
            raise InvalidQuantumObject("challenge must be orthogonal to phi1")


def make_forger_plan(mu: float, dim: int, margin: float | None = None) -> ForgerPlan:
    """Build the forger's query/challenge states for a given mu.

    ``phi1`` is ``|0>`` and the challenge ``phi3`` is ``|1>`` of the
    ``dim``-dimensional register.  Raises :class:`PreconditionViolation` when
    mu exceeds ``1 - margin`` (default ``1 / (2 dim)``): the attack's
    fidelity floor degenerates as mu -> 1, so a non-negligible margin is part
    of its contract.  A margin outside ``[0, 1]`` raises too.  Past these
    checks the states and the plan are built without re-validation.
    """
    _check_dim(dim, 2)  # the challenge |1> needs a second basis state
    if margin is None:
        margin = 0.5 / dim
    if not 0.0 <= margin <= 1.0:
        raise PreconditionViolation(f"margin {margin} outside [0, 1]")
    if not 0.0 <= mu <= 1.0 - margin + 1e-12:
        raise PreconditionViolation(
            f"mu={mu} outside [0, 1 - margin] with margin {margin}"
        )
    phi1 = _basis_state(dim, 0)
    phi3 = _basis_state(dim, 1)
    weight = max(mu, 0.5)
    amps2 = np.sqrt(weight) * phi1.amplitudes + np.sqrt(1.0 - weight) * phi3.amplitudes
    phi2 = _unchecked(StateVector, amplitudes=amps2)
    alpha, beta = float(np.sqrt(1.0 - weight)), float(np.sqrt(weight))
    return _unchecked(
        ForgerPlan, mu=mu, phi1=phi1, phi2=phi2, phi3=phi3, alpha=alpha, beta=beta
    )


def forgery_fidelity_bound(mu: float) -> float:
    """Certified fidelity floor of the emulation forger.

    ``(1 - mu) * (1 + 4 mu (1 - mu))`` on the weighted branch (mu > 1/2);
    the balanced branch used at mu <= 1/2 achieves exact forgery, so the
    floor there is 1.
    """
    if mu <= 0.5:
        return 1.0
    return (1.0 - mu) * (1.0 + 4.0 * mu * (1.0 - mu))


def _principal_states(final: np.ndarray) -> np.ndarray:
    """The normalised principal eigenvectors of ``F F^dag`` for a ``(T, D, m)``
    stack of circuit states ``F``, each turned so that its largest entry is
    positive.  ``F^dag F u = lam u`` gives ``F F^dag (F u) = lam F u``, so they
    are ``F u / sqrt(lam)``: one ``eigh`` of the ``(m, m)`` Gram matrix each."""
    gram = final.conj().swapaxes(-1, -2) @ final
    vecs = (final @ np.linalg.eigh(gram)[1][..., -1:])[..., 0]
    pivots = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=-1)]
    # Python's abs is hypot, as numpy's scalar abs is; array np.abs rounds otherwise
    phases = pivots.conj() / np.array([abs(p) for p in pivots.tolist()])
    return _normalised(vecs * phases[:, np.newaxis])


class QeForger:
    """Existential-game adversary running the emulation circuit.

    Learning queries the plan's ``phi1`` and ``phi2``; the challenge is
    ``phi3``; the guess is the principal eigenvector of the circuit's output
    (``phi2`` as reference), exact whenever that output is pure.  The stage-2
    measurement is sampled (one physical run, no retries), so on the weighted
    branch the guess occasionally comes from the failure branch; at
    mu <= 1/2 stage 2 passes with certainty.  The guess is that of
    ``_ForgerChunk(mu)`` on one game, for whatever challenge it is given.
    """

    def __init__(self, mu: float) -> None:
        if not 0.0 <= mu <= 1.0:
            raise InvalidQuantumObject(f"mu={mu} outside [0, 1]")
        self.plan: ForgerPlan | None = None
        self._responses: np.ndarray | None = None  # (2, D) rows
        self._form = _ForgerChunk(mu)
        # as SubspaceAdversary's: a subclass plays game by game
        self._chunk_form = self._form if type(self) is QeForger else None

    def learn(
        self,
        oracle: SealedOracle,
        dim: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None:
        self.plan = make_forger_plan(self._form.mu, dim)
        queries = (self.plan.phi1, self.plan.phi2)
        self._responses = np.array([oracle.query(q).amplitudes for q in queries])

    def choose_challenge(self, rng: np.random.Generator) -> StateVector:
        if self.plan is None:
            raise InvalidQuantumObject("choose_challenge called before learn")
        return self.plan.phi3

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        if self._responses is None:
            raise InvalidQuantumObject("respond called before learn")
        dim = self._responses.shape[1]
        if challenge.dim != dim:
            raise DimensionMismatch(f"input dim {challenge.dim} != sample dim {dim}")
        psi, outputs = challenge.amplitudes[np.newaxis], self._responses[np.newaxis]
        guess = self._form.respond(psi, outputs, [rng])[0]
        return _unchecked(StateVector, amplitudes=guess)


@dataclass(frozen=True)
class _ForgerChunk:
    """``QeForger(mu)``'s queries, challenge and guess over a chunk of ``qex``
    games as arrays; one game is a chunk of one.  It queries the plan's
    ``phi1`` and ``phi2`` and names ``phi3`` as every game's challenge.  Stages
    1 and 2 and the failure branch's guess run once, and stage 4 and the guess
    on ``(T, D)`` stacks of the games' responses, the guess from ``(T, 2, 2)``
    Gram matrices, with no ``(T, D, D)`` stack."""

    mu: float
    mode = QEX

    def inputs(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        plan = make_forger_plan(self.mu, dim)  # its margin check raises before any draw
        return np.array([plan.phi1.amplitudes, plan.phi2.amplitudes]), plan.phi3.amplitudes

    def respond(self, challenges: np.ndarray, responses: np.ndarray, rngs) -> np.ndarray:
        """``(T, D)`` guesses from the ``(T, 2, D)`` responses and the streams to
        the chunk's one challenge, ``challenges[0]``; a stage-2 pass probability
        below the floor raises :class:`PostSelectionFailure` before any draw."""
        queries = self.inputs(challenges.shape[1])[0]
        stage2 = _through_stage2(queries, 1, challenges[0])  # phi2: reference
        passed = np.array([rng.random() < stage2[2] for rng in rngs])
        guesses = np.empty(challenges.shape, dtype=np.complex128)
        if not passed.all():
            guesses[~passed] = _principal_states(_final_state(queries, 1, stage2)[np.newaxis])
        if passed.any():
            outputs = responses[passed].transpose(1, 0, 2)  # (2, T, D)
            guesses[passed] = _principal_states(_final_state(queries, 1, stage2, outputs))
        return guesses


@dataclass(frozen=True, eq=False)
class ForgeryReport:
    """Audit record of one conditioned (post-selected) forgery run."""

    mu: float
    fidelity: float
    p_succ_stage1: float
    stage2_pass_prob: float
    theory_bound: float
    plan: ForgerPlan


def run_forgery(
    instance: QPufInstance, mu: float, margin: float | None = None
) -> ForgeryReport:
    """Run the emulation attack against a known device and audit it.

    This is the analysis pipeline, not a game: the device is queried
    directly, stage 2 is post-selected (conditioned, not sampled), and the
    achieved fidelity is measured against the true response to the
    challenge.
    """
    plan = make_forger_plan(mu, instance.dim, margin=margin)
    responses = (qeval(instance, plan.phi1), qeval(instance, plan.phi2))
    # the emulation circuit on the plan's two queries, phi2 as reference
    cfg = QeConfig((plan.phi1, plan.phi2), responses, reference_index=1)
    result = run_full(cfg, plan.phi3, target=qeval(instance, plan.phi3))
    return ForgeryReport(
        mu=mu,
        fidelity=float(result.fidelity_vs_target),
        p_succ_stage1=result.p_succ_stage1,
        stage2_pass_prob=result.stage2_pass_prob,
        theory_bound=forgery_fidelity_bound(mu),
        plan=plan,
    )
