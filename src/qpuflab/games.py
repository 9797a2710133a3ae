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
from .numerics import RANK_TOL, StateVector, _as_int, _check_qubits, _check_seed
from .numerics import _haar_qr, _haar_rows, _row_dots, _seed_words, _stream, _unchecked
from .numerics import fidelity_pure, haar_state
# qgen, qeval and span_projector are not called here; the traced benchmark
# patches them at these names, so they stay importable
from .numerics import span_projector  # noqa: F401
from .qpuf import QPufGenParams, qeval, qgen  # noqa: F401
from .testers import TestConfig, _accepted, run_test

QEX = "qex"
QSEL = "qsel"

#: complex entries per stacked draw of devices' ``(D, k)`` blocks in
#: ``estimate_win_rate`` (14 games at (64, 9)).  It bounds memory; one QR of
#: the stack costs a fraction of one ``np.linalg.qr`` call per device at D <= 16
_DRAW_CHUNK = 2**13
#: trial keys per ``_seed_words`` call (whole chunks): it bounds the hash's memory
_HASH_BLOCK = 2**12


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

    __slots__ = ("dim", "rank", "_images", "_rows")

    def __init__(self, images: np.ndarray) -> None:
        self.dim, k = images.shape
        self._images, self.rank = images, 0
        # rows past the rank stay zero, so products need not slice them off;
        # at rank 0 the projection is then zero and leaves the input as it was
        self._rows = np.zeros((k, self.dim), dtype=np.complex128)

    def __call__(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise DimensionMismatch(f"unitary dim {self.dim} != state dim {psi.dim}")
        c = self.coefficients(psi.amplitudes)
        return _unchecked(StateVector, amplitudes=np.dot(self._images, c))

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """``v`` on the block's columns, shape ``(k,)``; a new direction becomes
        the next row.  Only the inputs so far decide it, never ``images``."""
        r, conj = self.rank, self._rows.conj()
        # Gram-Schmidt; a second pass only for a short residual
        c = np.dot(conj, v)
        v = v - np.dot(c, self._rows)
        if RANK_TOL < (norm := math.sqrt(np.vdot(v, v).real)) < 0.5:
            extra = np.dot(conj, v)
            v -= np.dot(extra, self._rows)
            c += extra
            norm = math.sqrt(np.vdot(v, v).real)
        if norm > RANK_TOL:
            np.divide(v, norm, out=self._rows[r])
            c[r], self.rank = norm, r + 1
        return c


def _images(blocks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Images of inputs with ``(T, k)`` or shared ``(k,)`` coefficients under
    ``(T, D, k)`` blocks: each keeps ``np.dot``'s bits (at k = 1 for real ones)."""
    return (blocks @ coeffs[..., None])[..., 0]


def _devices(cfg: "GameConfig", rngs: list[np.random.Generator]) -> list[_LazyDevice]:
    """One lazy device per game stream, on its block from ``_blocks``."""
    return [_LazyDevice(w) for w in _blocks(cfg, rngs)]


def _blocks(cfg: "GameConfig", rngs: list[np.random.Generator]) -> np.ndarray:
    """The ``(T, D, k)`` device blocks of a chunk of game streams: each stream's
    first draw seeds one ``standard_normal(2Dk)`` call, a ``(D, k)`` Ginibre
    block (``k = min(budget + 1, D)``, all a game can span), on ``default_rng``'s
    generator for that seed, from one ``_seed_words`` call for the chunk's seeds
    (low word first), into one reused ``(2, D, k)`` row copied into the complex
    stack's parts: the bits of ``re + 1j * im``, whose ``1j * im`` has real part
    ±0, which leaves a nonzero ``re`` as it is.  One stacked QR factors them
    all, so block ``t`` is bit for bit the one ``rngs[t]`` alone gives."""
    _check_qubits(cfg.gen.qubits)
    dim, k = _block_shape(cfg)
    seeds = [_device_seed(rng) for rng in rngs]
    for seed in seeds:
        _check_seed(seed)
    z, row = np.empty((len(rngs), dim, k), dtype=np.complex128), np.empty((2, dim, k))
    words = _seed_words(np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2))
    for block, seed, w in zip(z, seeds, words):
        _stream(w, seed).standard_normal(out=row)
        block.real, block.imag = row[0], row[1]
    return _haar_qr(z)


def _trial_streams(seed: int, trials: int, per_chunk: int, first: int = 0):
    """Trial ``k``'s ``default_rng(SeedSequence(seed).spawn(k + 1)[k])`` for the
    ``trials`` keys from ``first``, a chunk at a time, on words hashed a block
    at a time: numpy pads the seed's words with zeros to its pool of 4, then
    appends ``k``'s, low word first, dropping a high word of 0."""
    block = per_chunk * max(1, _HASH_BLOCK // per_chunk)
    for start in range(first, first + trials, block):
        keys = np.arange(start, min(start + block, first + trials), dtype=np.uint64)
        entropy = np.zeros((len(keys), 6), dtype=np.uint32)
        entropy[:, :2] = np.array([seed], dtype="<u8").view("<u4")
        entropy[:, 4:] = keys.astype("<u8").view("<u4").reshape(-1, 2)
        cut = int(np.searchsorted(keys, 2**32))
        parts = (entropy[:cut, :5], entropy[cut:])
        words = np.concatenate([_seed_words(e) for e in parts if len(e)])
        for at in range(0, len(keys), per_chunk):
            chunk = zip(words[at:at + per_chunk], keys[at:at + per_chunk].tolist())
            yield [_stream(w, seed, (key,)) for w, key in chunk]


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
    ``gen.qubits`` is read: ``gen.seed`` is not, because each device's seed is
    the first draw of its game's random stream, derived from ``seed`` (in
    ``estimate_win_rate``, game ``k``'s is ``SeedSequence(seed)``'s ``k``-th child).
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
        _check_challenge(cfg, challenge, queries, dim)
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
        fidelity_of_guess=outcome.fidelity,
    )


def _check_challenge(cfg: GameConfig, challenge: StateVector, queries: tuple, dim: int):
    if challenge.dim != dim:
        raise InvalidQuantumObject("challenge dimension mismatch")
    if not mu_check(challenge, queries, cfg.mu):
        raise MuViolation(f"challenge is not {cfg.mu}-distinguishable from the queries")


def _play_chunk(cfg: GameConfig, form, blocks: np.ndarray, rngs: list, keep: bool):
    """``_play`` of a chunk of games on ``(T, D)`` stacks: their accept bits, and
    transcripts only if ``keep``.  Game ``t`` is ``_play`` on block ``t`` and
    ``rngs[t]``, bit for bit: a ``qsel`` challenge, the adversaries' draws, the
    test's.  ``form``, the adversaries' ``_chunk_form``, gives raw query rows and
    a ``qex`` challenge row; only the mu rule and transcripts read states."""
    dim, k = blocks.shape[1:]
    rows, psi = form.inputs(dim)
    if len(rows) > cfg.learning_budget:
        raise BudgetExceeded(f"learning budget of {cfg.learning_budget} queries exhausted")
    if cfg.mode == QEX:
        # a device's rows depend on its inputs only, which the chunk shares,
        # so one device's Gram-Schmidt gives every game's coefficients
        device = _LazyDevice(blocks[0])
        coeffs = [device.coefficients(q) for q in rows]
        queries = tuple(_unchecked(StateVector, amplitudes=q) for q in rows)
        d, challenge = device.rank, _unchecked(StateVector, amplitudes=psi)
        _check_challenge(cfg, challenge, queries, dim)
        responses = np.stack([_images(blocks, c) for c in coeffs], 1)
        truth = _images(blocks, device.coefficients(psi))
        challenges = np.broadcast_to(psi, truth.shape)
        shown = [challenge] * len(rngs)
    else:
        # learning leaves each device the rows e_0 .. e_{d-1}; their images
        # are its block's first d columns, copied to rows as respond's bits need
        d = len(rows)
        responses = np.ascontiguousarray(blocks[:, :, :d].transpose(0, 2, 1))
        challenges = _haar_rows(dim, rngs)
        # the device's Gram-Schmidt step against e_0 .. e_{d-1} takes psi_j as
        # coefficients and leaves psi with them zeroed, exactly, so its second
        # pass, which would project zeros, changes no bit
        residual = np.where(np.arange(dim) < d, 0.0, challenges)
        norm = np.sqrt(_row_dots(residual.conj(), residual).real)
        coeffs = np.zeros((len(rngs), k), dtype=np.complex128)
        coeffs[:, :d] = challenges[:, :d]
        if d < k:
            coeffs[:, d] = np.where(norm > RANK_TOL, norm, 0.0)
        truth = _images(blocks, coeffs)
    guesses = form.respond(challenges, responses, rngs)
    # as fidelity_pure: Python's abs and ** round as numpy's scalars do
    fidelities = [abs(z) ** 2 for z in _row_dots(truth.conj(), guesses).tolist()]
    accepted = _accepted(cfg.test, fidelities, rngs)
    if keep and cfg.mode == QSEL:
        queries = tuple(_unchecked(StateVector, amplitudes=q) for q in rows)
        shown = [_unchecked(StateVector, amplitudes=psi) for psi in challenges]
    kept = zip(shown, accepted, fidelities) if keep else ()
    return accepted, [Transcript(queries, d, psi, int(b), f) for psi, b, f in kept]


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
    binomial one, ``sqrt(r (1 - r) / trials)``.  Unless ``keep_transcripts``
    is set, a chunk played as arrays builds no transcript, challenge state or
    test outcome, only each game's accept bit.

    Trial ``k`` is exactly ``run_game(cfg, adversary_factory(), rng_k)``
    with ``rng_k = default_rng(SeedSequence(cfg.seed).spawn(k + 1)[k])``.
    The streams are built and the devices' blocks drawn a chunk of trials at a
    time (one stacked QR of up to ``_DRAW_CHUNK`` entries, built in place), each
    device from the first draw of its own trial's stream, so every stream is
    consumed in the same order as by ``run_game``.  No child is spawned: the
    children's ``SeedSequence`` hash runs on arrays, a block of trial keys per call
    (``_trial_streams``).  A chunk plays as arrays, on ``(T, D)`` stacks, when its
    adversaries are all ``SubspaceAdversary`` with one ``d`` in ``qsel``
    games or all ``QeForger`` with one ``mu`` in ``qex`` games; any other
    chunk plays game by game.  Either way trial ``k`` is the same game, bit for bit.
    """
    if _as_int(trials, "trials") < 1:
        raise InvalidQuantumObject("at least one trial is required")
    per_chunk = max(1, _DRAW_CHUNK // math.prod(_block_shape(cfg)))
    wins = 0
    kept: list[Transcript] = []
    for rngs in _trial_streams(cfg.seed, trials, per_chunk):
        adversaries = [adversary_factory() for _ in rngs]
        form = getattr(adversaries[0], "_chunk_form", None)
        if any(getattr(a, "_chunk_form", None) != form for a in adversaries[1:]):
            form = None
        if form is not None and form.mode == cfg.mode:
            accepted, played = _play_chunk(
                cfg, form, _blocks(cfg, rngs), rngs, keep_transcripts
            )
        else:
            devices = _devices(cfg, rngs)
            played = [_play(cfg, *game) for game in zip(adversaries, devices, rngs)]
            accepted = [t.outcome_b for t in played]
        wins += sum(accepted)
        if keep_transcripts:
            kept.extend(played)
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
