"""Game-based unforgeability experiments against a sealed device oracle.

One game runs Setup (fresh device), Learning (the adversary queries the
device through a sealed handle, up to a budget), Challenge, and Guess (an
equality test between the true response and the adversary's forgery).

Two challenge modes:

* ``qex`` -- existential: the adversary picks its own challenge, which must
  be mu-distinguishable from every state it queried while learning,
* ``qsel`` -- selective: the challenger draws a Haar-random challenge and
  hands it to the adversary as one unclonable copy.

The oracle handle exposes ``query`` and nothing else; adversaries never see
the device's unitary.  Simulation note: queries and challenges are numpy
state vectors, so "one copy" is an interface discipline, not an enforcement
mechanism -- adversaries that read amplitudes they were not granted (see
``adversaries``) are modeling explicitly stronger attackers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import BudgetExceeded, InvalidQuantumObject, MuViolation
from .numerics import StateVector, fidelity_pure, haar_state, span_projector
from .qpuf import QPufGenParams, QPufInstance, qeval, qgen
from .testers import TestConfig, run_test

QEX = "qex"
QSEL = "qsel"


@runtime_checkable
class AdversaryInterface(Protocol):
    """What a game needs from an adversary.

    ``learn`` receives the sealed oracle, the space dimension, the query
    budget, and the game's random stream.  ``respond`` maps the challenge to
    a guessed response.  Existential (``qex``) adversaries must also
    implement ``choose_challenge``.
    """

    def learn(
        self,
        oracle: "SealedOracle",
        dim: int,
        budget: int,
        rng: np.random.Generator,
    ) -> None: ...

    def respond(
        self, challenge: StateVector, rng: np.random.Generator
    ) -> StateVector: ...


class SealedOracle:
    """Query-only handle on a device; the instance itself stays hidden."""

    __slots__ = ("query",)

    def __init__(self, query: Callable[[StateVector], StateVector]) -> None:
        self.query = query


def _make_oracle(
    instance: QPufInstance, budget: int, log: list[StateVector]
) -> SealedOracle:
    used = 0

    def query(psi: StateVector) -> StateVector:
        nonlocal used
        if used >= budget:
            raise BudgetExceeded(f"learning budget of {budget} queries exhausted")
        used += 1
        out = qeval(instance, psi)
        log.append(psi)
        return out

    return SealedOracle(query)


@dataclass(frozen=True)
class GameConfig:
    """Mode, budget, test, and device generator for one game family.

    ``learning_budget`` may not exceed ``4 * gen.qubits**2``.  Only
    ``gen.qubits`` is read: ``gen.seed`` is not, because ``run_game`` draws
    each device's seed from the game's random stream, derived from ``seed``.
    """

    mode: str
    gen: QPufGenParams
    test: TestConfig
    learning_budget: int
    seed: int
    mu: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (QEX, QSEL):
            raise InvalidQuantumObject(f"unknown game mode {self.mode!r}")
        if self.mode == QEX:
            if self.mu is None or not 0.0 <= self.mu <= 1.0:
                raise InvalidQuantumObject(
                    f"qex mode needs mu in [0, 1], got {self.mu}"
                )
        elif self.mu is not None:
            raise InvalidQuantumObject("qsel mode takes no mu")
        if self.learning_budget < 0:
            raise InvalidQuantumObject("learning budget must be non-negative")
        cap = 4 * self.gen.qubits**2
        if self.learning_budget > cap:
            raise InvalidQuantumObject(
                f"learning budget {self.learning_budget} exceeds cap {cap}"
            )


@dataclass(frozen=True, eq=False)
class Transcript:
    """One scored game: queries, challenge, outcome and the guess's fidelity.

    ``d_spanned`` is computed on read, not stored: most callers count wins
    and never look at it, and its rank costs a full ``D x D`` projector.
    """

    queries: tuple[StateVector, ...]
    challenge: StateVector
    outcome_b: int
    fidelity_of_guess: float

    @property
    def d_spanned(self) -> int:
        """Dimension of the span of the learning queries (0 if none)."""
        return span_projector(self.queries).rank if self.queries else 0


def mu_check(
    challenge: StateVector, learned: tuple[StateVector, ...], mu: float
) -> bool:
    """Is the challenge mu-distinguishable from every learned query?

    True iff ``F(challenge, q) <= 1 - mu`` (with 1e-9 slack) for all ``q``.
    """
    limit = 1.0 - mu + 1e-9
    return all(fidelity_pure(challenge, q) <= limit for q in learned)


def run_game(
    cfg: GameConfig,
    adversary: AdversaryInterface,
    rng: np.random.Generator | None = None,
) -> Transcript:
    """Play one game with a fresh device; returns its transcript.

    A challenge that fails the mu-distinguishability rule is a protocol
    violation and raises :class:`MuViolation` rather than scoring a loss.
    """
    if cfg.mode == QEX and not hasattr(adversary, "choose_challenge"):
        raise InvalidQuantumObject("qex games need an adversary with choose_challenge")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    instance_seed = int(rng.integers(0, 2**63))
    instance = qgen(QPufGenParams(qubits=cfg.gen.qubits, seed=instance_seed))
    dim = instance.dim

    log: list[StateVector] = []
    oracle = _make_oracle(instance, cfg.learning_budget, log)
    adversary.learn(oracle, dim, cfg.learning_budget, rng)
    queries = tuple(log)

    if cfg.mode == QEX:
        challenge = adversary.choose_challenge(rng)  # type: ignore[attr-defined]
        if challenge.dim != dim:
            raise InvalidQuantumObject("challenge dimension mismatch")
        if not mu_check(challenge, queries, cfg.mu):
            raise MuViolation(
                f"challenge is not {cfg.mu}-distinguishable from the queries"
            )
    else:
        challenge = haar_state(dim, rng)

    true_response = qeval(instance, challenge)
    guess = adversary.respond(challenge, rng)
    if guess.dim != dim:
        raise InvalidQuantumObject("guess dimension mismatch")

    outcome = run_test(cfg.test, true_response, guess, rng)
    return Transcript(
        queries=queries,
        challenge=challenge,
        outcome_b=int(outcome.accepted),
        fidelity_of_guess=fidelity_pure(true_response, guess),
    )


@dataclass(frozen=True)
class WinRateEstimate:
    win_rate: float
    stderr: float
    wins: int
    trials: int
    transcripts: tuple[Transcript, ...] = field(repr=False, default=())


def estimate_win_rate(
    cfg: GameConfig,
    adversary_factory: Callable[[], AdversaryInterface],
    trials: int,
    keep_transcripts: bool = False,
) -> WinRateEstimate:
    """Monte Carlo win rate over independent games.

    Every trial gets a fresh device, a fresh adversary from the factory, and
    an independent child random stream derived from ``cfg.seed``, so results
    are reproducible and order-independent.  The standard error is the
    binomial one, ``sqrt(r (1 - r) / trials)``.  Transcripts are dropped
    after scoring unless ``keep_transcripts`` is set; a dropped transcript
    never computes its ``d_spanned``.
    """
    if trials < 1:
        raise InvalidQuantumObject("at least one trial is required")
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    wins = 0
    kept: list[Transcript] = []
    for child in children:
        transcript = run_game(cfg, adversary_factory(), np.random.default_rng(child))
        wins += transcript.outcome_b
        if keep_transcripts:
            kept.append(transcript)
    rate = wins / trials
    stderr = float(np.sqrt(rate * (1.0 - rate) / trials))
    return WinRateEstimate(
        win_rate=rate,
        stderr=stderr,
        wins=wins,
        trials=trials,
        transcripts=tuple(kept),
    )


def transcript_record(cfg: GameConfig, transcript: Transcript) -> dict:
    """Flat JSON-ready summary of one game (states omitted)."""
    return {
        "mode": cfg.mode,
        "n": cfg.gen.qubits,
        "k": cfg.learning_budget,
        "d_spanned": transcript.d_spanned,
        "b": transcript.outcome_b,
        "fidelity_of_guess": transcript.fidelity_of_guess,
    }
