"""Test-only oracles: per-game loops that the array paths must match bit for bit.

pytest does not collect this module; tests import it by name.
"""

import numpy as np

from qpuflab import DimensionMismatch, InvalidQuantumObject, StateVector, SubspaceAdversary
from qpuflab.numerics import _complement_vector, _unchecked


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
