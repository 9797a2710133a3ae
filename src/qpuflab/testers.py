"""Equality tests a verifier can run between a response and a guess.

Two test families:

* ``swap`` -- repeat a swap test on ``c = min(kappa1, kappa2)`` fresh copy
  pairs and accept only if every repetition passes.  A single swap test
  passes with probability ``(1 + F) / 2``, so acceptance happens with
  probability ``((1 + F) / 2) ** c`` and orthogonal states slip through with
  probability exactly ``2 ** -c``.
* ``ideal`` -- a deterministic threshold oracle: accept iff the fidelity is
  at least ``delta``.  This is the abstract test used by the security bounds;
  it upper-bounds anything a physical tester could do at the same threshold.

``run_test`` samples swap tests analytically (a Bernoulli draw at the exact
pass probability); the test suite cross-checks that shortcut against the
explicit Hadamard / controlled-SWAP / Hadamard circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuantumObject
from .numerics import StateVector, _as_int, fidelity_pure

SWAP = "swap"
IDEAL = "ideal"

#: swap repetitions drawn per ``rng.random`` call, which bounds the memory
#: of a battery; the uniforms are the same as from one draw of all of them
_DRAW_CHUNK = 2**16


@dataclass(frozen=True)
class TestConfig:
    """Which test to run and how many copies each side contributes."""

    kind: str
    kappa1: int = 1
    kappa2: int = 1
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (SWAP, IDEAL):
            raise InvalidQuantumObject(f"unknown test kind {self.kind!r}")
        if _as_int(self.kappa1, "kappa1") < 1 or _as_int(self.kappa2, "kappa2") < 1:
            raise InvalidQuantumObject("copy counts must be at least 1")
        if self.kind == IDEAL:
            if self.delta is None or not 0.0 < self.delta <= 1.0:
                raise InvalidQuantumObject(
                    f"ideal test needs a threshold in (0, 1], got {self.delta}"
                )
        elif self.delta is not None:
            raise InvalidQuantumObject("swap test takes no threshold")

    @property
    def pairs(self) -> int:
        """Number of swap repetitions the copy budget supports."""
        return min(self.kappa1, self.kappa2)


@dataclass(frozen=True)
class TestOutcome:
    """The verdict, its swap-pass tally, and the fidelity ``F`` it judged."""

    accepted: bool
    pass_count: int
    pairs_run: int
    fidelity: float

    def __post_init__(self) -> None:
        if not 0 <= self.pass_count <= self.pairs_run:
            raise InvalidQuantumObject("pass_count outside 0..pairs_run")


def expected_acceptance(fidelity: float, pairs: int) -> float:
    """All-pass acceptance probability ``((1 + F) / 2) ** pairs``."""
    return (0.5 * (1.0 + fidelity)) ** pairs


def run_test(
    cfg: TestConfig,
    target: StateVector,
    guess: StateVector,
    rng: np.random.Generator,
) -> TestOutcome:
    """Execute the configured test between the true response and a guess.

    The state arguments are classical descriptions standing in for the copy
    bundles; ``cfg`` says how many copies each side holds.
    """
    f = fidelity_pure(target, guess)  # raises DimensionMismatch on differing dims
    return _verdict(cfg, f, rng)


def _verdict(cfg: TestConfig, f: float, rng: np.random.Generator) -> TestOutcome:
    """The configured test's verdict on a guess of fidelity ``f``, with its
    swap-pass tally: ``_accepted``'s rule for one game."""
    if cfg.kind == IDEAL:
        return TestOutcome(a := _accepted(cfg, [f], [rng])[0], int(a), 1, f)
    passes, accepted = _swap_tally(f, 1, c := cfg.pairs, rng)
    return TestOutcome(accepted == 1, passes, c, f)


def _accepted(cfg: TestConfig, fidelities: list[float], rngs) -> list[bool]:
    """Each game's accept bit at fidelity ``fidelities[t]``, with no ``TestOutcome``:
    the ideal threshold, or ``cfg.pairs`` swap draws from ``rngs[t]``, in order.
    Each stream fills its game's row of one ``(T, c)`` uniform array, in pieces
    of as many whole games as ``_DRAW_CHUNK`` holds, and one comparison with
    ``expected_acceptance(f, 1)`` scores them all: ``_swap_tally``'s uniforms and
    rule.  A battery longer than ``_DRAW_CHUNK`` is tallied game by game."""
    if cfg.kind == IDEAL:
        return [f >= cfg.delta - 1e-12 for f in fidelities]
    if (rows := _DRAW_CHUNK // (c := cfg.pairs)) < 1:
        return [_swap_tally(f, 1, c, rng)[1] for f, rng in zip(fidelities, rngs)]
    p = expected_acceptance(np.array(fidelities, dtype=np.float64), 1)[:, np.newaxis]
    u, bits = np.empty((min(rows, len(rngs)), c)), []
    for start in range(0, len(rngs), rows):
        games = rngs[start:start + rows]
        for row, rng in zip(u, games):
            rng.random(out=row)
        bits += (u[:len(games)] < p[start:start + rows]).all(1).tolist()
    return bits


def _swap_tally(f: float, trials: int, pairs: int, rng) -> tuple[int, int]:
    """Passed tests and accepted trials among ``trials`` batteries of ``pairs``
    swap tests at fidelity ``f``: a test passes if its uniform, drawn in stream
    order, is below ``expected_acceptance(f, 1)``; a battery, if all do."""
    p = expected_acceptance(f, 1)
    if trials == 1:  # in pieces of at most _DRAW_CHUNK uniforms
        passes = 0
        for start in range(0, pairs, _DRAW_CHUNK):
            passes += int(np.count_nonzero(rng.random(min(_DRAW_CHUNK, pairs - start)) < p))
        return passes, passes == pairs
    if (rows := _DRAW_CHUNK // pairs) < 2:  # one trial at a time
        tallies = [_swap_tally(f, 1, pairs, rng) for _ in range(trials)]
        return sum(n for n, _ in tallies), sum(a for _, a in tallies)
    counts = np.concatenate([  # as many whole trials a piece as fit
        np.count_nonzero(rng.random((min(rows, trials - r), pairs)) < p, 1)
        for r in range(0, trials, rows)
    ])
    return int(counts.sum()), int(np.count_nonzero(counts == pairs))
