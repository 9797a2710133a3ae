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
    accepted: bool
    pass_count: int
    pairs_run: int

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
    if cfg.kind == IDEAL:
        accepted = f >= cfg.delta - 1e-12
        return TestOutcome(accepted=accepted, pass_count=int(accepted), pairs_run=1)
    c = cfg.pairs
    p = expected_acceptance(f, 1)
    passes = 0
    for start in range(0, c, _DRAW_CHUNK):
        draws = rng.random(min(_DRAW_CHUNK, c - start))
        passes += int(np.count_nonzero(draws < p))
    return TestOutcome(accepted=passes == c, pass_count=passes, pairs_run=c)
