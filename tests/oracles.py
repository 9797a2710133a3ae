"""Test-only oracles: per-game and per-trial loops that the array paths must
match bit for bit.

pytest does not collect this module; tests import it by name.
"""

import numpy as np

from qpuflab import (
    DensityMatrix,
    DimensionMismatch,
    EpsilonDisturbedChannel,
    InvalidQuantumObject,
    QeForger,
    StateVector,
    SubspaceAdversary,
    TestConfig,
    TestOutcome,
    check_collision,
    expected_acceptance,
    fidelity_pure,
    haar_unitary,
    testers,
)
from qpuflab.adversaries import _forger_circuit
from qpuflab.emulator import run_full
from qpuflab.numerics import _complement_vector, _haar_vector, _unchecked
from qpuflab.verify import _check_inputs, _report


class SubspaceOracle(SubspaceAdversary):
    """``SubspaceAdversary`` whose guess is one game's loop over the learned
    basis, with ``np.vdot`` overlaps, instead of the library's chunk kernel.

    Being a subclass, it has no chunk form, so games play it through
    ``games._play``.
    """

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        kn = self.knowledge
        if kn is None:
            raise InvalidQuantumObject("respond called before learn")
        if challenge.dim != kn.dim:
            raise DimensionMismatch(f"challenge dim {challenge.dim} != space {kn.dim}")
        psi = challenge.amplitudes
        guess = np.zeros(kn.dim, dtype=np.complex128)
        in_weight = 0.0
        for b_in, b_out in zip(kn.basis_in, kn.basis_out):
            c = np.vdot(b_in.amplitudes, psi)
            guess += c * b_out.amplitudes
            in_weight += float(abs(c) ** 2)
        rest = 1.0 - min(in_weight, 1.0)
        # a spanning basis leaves no complement to draw from; a challenge
        # short of unit norm by round-off must not wait for one
        if rest > 1e-12 and kn.d < kn.dim:
            images = [b.amplitudes for b in kn.basis_out]
            guess += np.sqrt(rest) * _complement_vector(images, kn.dim, rng)
        return _unchecked(StateVector, amplitudes=guess / np.linalg.norm(guess))


class ForgerOracle(QeForger):
    """``QeForger`` whose guess is one game's principal eigenvector of the
    one-run ``run_full`` output, written out, instead of the library's stack
    rule; the phase is fixed on numpy scalars.

    Being a subclass, it has no chunk form, so games play it through
    ``games._play``.
    """

    def respond(self, challenge: StateVector, rng: np.random.Generator) -> StateVector:
        if self.plan is None or self._responses is None:
            raise InvalidQuantumObject("respond called before learn")
        cfg = _forger_circuit(self.plan, self._responses)
        self.last_result = run_full(cfg, challenge, rng=rng)
        vec = np.linalg.eigh(self.last_result.output_mixed.matrix)[1][:, -1]
        pivot = int(np.argmax(np.abs(vec)))
        vec = vec * (vec[pivot].conj() / abs(vec[pivot]))
        return _unchecked(StateVector, amplitudes=vec / np.linalg.norm(vec))


def run_test(cfg, target, guess, rng):
    """A swap test's verdict, one ``rng.random`` piece of at most
    ``testers._DRAW_CHUNK`` pairs at a time, with its own pass rule."""
    f = fidelity_pure(target, guess)
    c = cfg.pairs
    p = expected_acceptance(f, 1)
    passes = 0
    for start in range(0, c, testers._DRAW_CHUNK):
        draws = rng.random(min(testers._DRAW_CHUNK, c - start))
        passes += int(np.count_nonzero(draws < p))
    return TestOutcome(passes == c, passes, c, f)


def swap_statistics_check(trials, rng):
    """``verify.swap_statistics_check`` as one ``run_test`` per trial and cell."""
    _check_inputs(trials, 1)
    margins: list[float] = []
    details: list[str] = []
    for f in (0.0, 0.5, 1.0):
        target = StateVector(np.array([1.0, 0.0], dtype=np.complex128))
        guess = StateVector(
            np.array([np.sqrt(f), np.sqrt(1.0 - f)], dtype=np.complex128)
        )
        for pairs in (1, 5, 20):
            cfg = TestConfig(kind="swap", kappa1=pairs, kappa2=pairs)
            hits = sum(
                run_test(cfg, target, guess, rng).accepted for _ in range(trials)
            )
            rate = hits / trials
            expect = expected_acceptance(f, pairs)
            if f == 1.0:
                margins.append(0.0 if rate == 1.0 else -1.0)
            else:
                se = float(np.sqrt(expect * (1.0 - expect) / trials))
                margins.append(3.0 * se + 1e-12 - abs(rate - expect))
            details.append(f"F={f} c={pairs} rate={rate:.4f} expect={expect:.4f}")
    return _report("swap-battery-statistics", margins, detail="; ".join(details))


def negative_control_check(trials, rng):
    """``verify.negative_control_check`` as one ``check_collision`` per trial."""
    _check_inputs(trials, 1)
    dim = 4
    channel = EpsilonDisturbedChannel(epsilon=0.5, unitary=haar_unitary(dim, rng))
    margins: list[float] = []
    for _ in range(trials):
        a = _haar_vector(dim, rng)
        b = _complement_vector([a], dim, rng)
        rho = DensityMatrix.from_state(StateVector(a))
        sigma = DensityMatrix.from_state(StateVector(b))
        ok = check_collision(channel, rho, sigma, delta_c=0.9)
        margins.append(0.0 if ok else -1.0)
    return _report(
        "negative-control-collision",
        margins,
        detail="expected to fail: eps=0.5 device audited against delta_c=0.9",
    )


class QuarterUniforms:
    """A generator stand-in whose uniforms are those of ``default_rng(seed)``
    rounded down to quarters, so that swap draws hit the pass probability 1/2
    of an orthogonal guess exactly; a test passes only strictly below it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def random(self, size=None):
        return np.floor(4.0 * self._rng.random(size)) / 4.0
