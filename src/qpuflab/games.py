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
the device's unitary, so a game samples its device lazily (``_LazyDevice``):
a Haar isometry on the span it touches stands in for ``qgen``'s unitary.
Simulation note: queries and challenges are numpy
state vectors, so "one copy" is an interface discipline, not an enforcement
mechanism -- adversaries that read amplitudes they were not granted (see
``adversaries``) are modeling explicitly stronger attackers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvalidQuantumObject, MuViolation
from .numerics import RANK_TOL, StateVector, _as_int, _check_seed, _ginibre, _haar_qr
from .numerics import _unchecked, fidelity_pure, haar_state
# qgen, qeval and span_projector are not called here; the traced benchmark
# patches them at these names, so they stay importable
from .numerics import span_projector  # noqa: F401
from .qpuf import QPufGenParams, qeval, qgen  # noqa: F401
from .testers import TestConfig, run_test

QEX = "qex"
QSEL = "qsel"

#: complex entries per stacked draw of devices' ``(D, k)`` blocks in
#: ``estimate_win_rate``.  It bounds memory; one QR of the stack costs a
#: fraction of one ``np.linalg.qr`` call per device at D <= 16
_DRAW_CHUNK = 2**12


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


class _LazyDevice:
    """A Haar-random device sampled only on the span a game touches.

    On the span of the inputs seen so far a Haar unitary is a Haar isometry
    (Mezzadri, math-ph/0609050; Ma-Huang, arXiv:2410.10116): the device keeps
    their orthonormal rows and image columns.  A new direction takes the next
    column of the ``(D, k)`` block ``images``.  The block is all a game can
    reach: the oracle refuses query ``budget + 1`` and ``_play`` evaluates the
    challenge once, and each of these ``budget + 1`` calls adds at most one
    row, so ``k = min(budget + 1, D)`` rows suffice; after ``D`` rows every
    residual is round-off, below ``RANK_TOL``.  A call past the block raises
    ``IndexError``; no game can make one.  ``rank`` is the dimension of the
    span of the inputs seen so far.
    """

    __slots__ = ("dim", "rank", "_images", "_rows", "_conj")

    def __init__(self, images: np.ndarray) -> None:
        self.dim, k = images.shape
        self._images, self.rank = images, 0
        # rows past the rank stay zero, so products need not slice them off
        self._rows = np.zeros((k, self.dim), dtype=np.complex128)
        self._conj = np.zeros_like(self._rows)  # the rows' conjugates

    def __call__(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise DimensionMismatch(f"unitary dim {self.dim} != state dim {psi.dim}")
        v, r = psi.amplitudes, self.rank
        if r:  # Gram-Schmidt; a second pass only for a short residual
            c = np.dot(self._conj, v)
            v = v - np.dot(c, self._rows)
            if RANK_TOL < (norm := math.sqrt(np.vdot(v, v).real)) < 0.5:
                extra = np.dot(self._conj, v)
                v -= np.dot(extra, self._rows)
                c += extra
                norm = math.sqrt(np.vdot(v, v).real)
        else:
            c, norm = np.zeros(len(self._rows), complex), math.sqrt(np.vdot(v, v).real)
        if norm > RANK_TOL:
            np.divide(v, norm, out=self._rows[r])
            np.conjugate(self._rows[r], out=self._conj[r])
            c[r], self.rank = norm, r + 1
        return _unchecked(StateVector, amplitudes=np.dot(self._images, c))


def _devices(cfg: "GameConfig", rngs: list[np.random.Generator]) -> list[_LazyDevice]:
    """One lazy device per game stream, seeded by the stream's first draw.

    A game's queries and challenge span at most ``k = min(budget + 1, D)``
    dimensions.  One stacked QR factors each device's ``(D, k)`` Ginibre
    block, so device ``t`` is bit for bit the one ``rngs[t]`` alone gives.
    """
    params = [QPufGenParams(cfg.gen.qubits, _device_seed(rng)) for rng in rngs]
    gens = [np.random.default_rng(p.seed) for p in params]
    dim, k = _block_shape(cfg)
    blocks = np.array([_ginibre(dim, gen, k) for gen in gens])
    return [_LazyDevice(w) for w in _haar_qr(blocks)]


def _block_shape(cfg: "GameConfig") -> tuple[int, int]:
    return 2**cfg.gen.qubits, min(cfg.learning_budget + 1, 2**cfg.gen.qubits)


def _make_oracle(
    device: _LazyDevice, budget: int, log: list[StateVector]
) -> SealedOracle:
    used = 0

    def query(psi: StateVector) -> StateVector:
        nonlocal used
        if used >= budget:
            raise BudgetExceeded(f"learning budget of {budget} queries exhausted")
        used += 1
        out = device(psi)
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
        _check_seed(self.seed)
        if _as_int(self.learning_budget, "learning budget") < 0:
            raise InvalidQuantumObject("learning budget must be non-negative")
        cap = 4 * self.gen.qubits**2
        if self.learning_budget > cap:
            raise InvalidQuantumObject(
                f"learning budget {self.learning_budget} exceeds cap {cap}"
            )


@dataclass(frozen=True, eq=False)
class Transcript:
    """One scored game: queries, challenge, outcome and the guess's fidelity.

    ``d_spanned`` is the dimension of the span of the learning queries (0 if
    none): the device's rank when learning ends.
    """

    queries: tuple[StateVector, ...]
    d_spanned: int
    challenge: StateVector
    outcome_b: int
    fidelity_of_guess: float


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
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return _play(cfg, adversary, _devices(cfg, [rng])[0], rng)


def _device_seed(rng: np.random.Generator) -> int:
    """The device seed: always the first draw of a game's random stream."""
    return int(rng.integers(0, 2**63))


def _play(
    cfg: GameConfig,
    adversary: AdversaryInterface,
    device: _LazyDevice,
    rng: np.random.Generator,
) -> Transcript:
    """Learning, challenge, guess and test on a device already drawn from ``rng``."""
    if cfg.mode == QEX and not hasattr(adversary, "choose_challenge"):
        raise InvalidQuantumObject("qex games need an adversary with choose_challenge")
    dim = device.dim
    log: list[StateVector] = []
    oracle = _make_oracle(device, cfg.learning_budget, log)
    adversary.learn(oracle, dim, cfg.learning_budget, rng)
    queries, d_spanned = tuple(log), device.rank

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

    true_response = device(challenge)
    guess = adversary.respond(challenge, rng)
    if guess.dim != dim:
        raise InvalidQuantumObject("guess dimension mismatch")

    outcome = run_test(cfg.test, true_response, guess, rng)
    return Transcript(
        queries=queries,
        d_spanned=d_spanned,
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
    after scoring unless ``keep_transcripts`` is set.

    Trial ``k`` is exactly ``run_game(cfg, adversary_factory(), rng_k)``
    with ``rng_k`` built from the ``k``-th child of
    ``SeedSequence(cfg.seed)``.  The children are spawned and the devices'
    blocks drawn a chunk of trials at a time (one stacked QR, about
    ``_DRAW_CHUNK`` entries), each device from the first draw of its own
    trial's stream, so every stream is consumed in the same order as by
    ``run_game``.
    """
    if _as_int(trials, "trials") < 1:
        raise InvalidQuantumObject("at least one trial is required")
    seeds = np.random.SeedSequence(cfg.seed)
    per_chunk = max(1, _DRAW_CHUNK // math.prod(_block_shape(cfg)))
    wins = 0
    kept: list[Transcript] = []
    for start in range(0, trials, per_chunk):
        children = seeds.spawn(min(per_chunk, trials - start))
        rngs = [np.random.default_rng(c) for c in children]
        for rng, device in zip(rngs, _devices(cfg, rngs)):
            transcript = _play(cfg, adversary_factory(), device, rng)
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
