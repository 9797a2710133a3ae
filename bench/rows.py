"""Per-call cost of the rows in ROADMAP item 1's baseline table.

Run after the traced phase, with tracing removed: each row times its public
call in batches and reports the median batch mean, raw and scaled to the
nominal host speed (``hostspeed.py``).  A row whose cost at nominal speed
falls outside ``AGREE`` times the ROADMAP value is flagged as disagreeing,
so the table can be corrected at the next re-anchor.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

from hostspeed import REFERENCE_S, reference
from qpuflab import adversaries, cli, games, numerics, qpuf
from qpuflab.testers import TestConfig

#: measured / ROADMAP ratio band inside which a row agrees
AGREE = (0.75, 4.0 / 3.0)
REPEAT = 5


def _per_call(fn, number: int) -> float:
    means = []
    for _ in range(REPEAT):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        means.append((perf_counter() - t0) / number)
    return statistics.median(means)


def _density(dim: int, rng) -> numerics.DensityMatrix:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return numerics.DensityMatrix(m / np.trace(m).real)


# Each row maker takes (rng, workdir, *row args) and returns the call to time,
# how many calls make one batch, and how many row units one call is.


def _statevector(rng, workdir, dim):
    amps = numerics.haar_state(dim, rng).amplitudes
    return lambda: numerics.StateVector(amps), 2000, 1


def _haar_unitary(rng, workdir, dim):
    return lambda: numerics.haar_unitary(dim, rng), 400 if dim <= 8 else 50, 1


def _density_matrix(rng, workdir, dim):
    mat = _density(dim, rng).matrix
    return lambda: numerics.DensityMatrix(mat), 400 if dim <= 8 else 50, 1


def _fidelity_mixed(rng, workdir, dim):
    rho, sigma = _density(dim, rng), _density(dim, rng)
    return lambda: numerics.fidelity_mixed(rho, sigma), 400 if dim <= 8 else 30, 1


def _run_forgery(rng, workdir, n):
    instance = qpuf.qgen(qpuf.QPufGenParams(qubits=n, seed=int(rng.integers(2**63))))
    return lambda: adversaries.run_forgery(instance, 0.5), 200, 1


def _selective_game(rng, workdir, d, n):
    trials = 200 if n <= 4 else 40
    cfg = games.GameConfig(
        mode="qsel",
        gen=qpuf.QPufGenParams(qubits=n, seed=int(rng.integers(2**63))),
        test=TestConfig(kind="ideal", delta=0.5),
        learning_budget=d,
        seed=int(rng.integers(2**63)),
    )

    def play():
        games.estimate_win_rate(cfg, lambda: adversaries.SubspaceAdversary(d), trials)

    return play, 1, trials


def _verify_all(rng, workdir):
    out = os.path.join(workdir, "rows-verify-all.json")
    argv = ["verify-all", "--seed", str(int(rng.integers(2**31))), "--out", out]
    return lambda: cli.main(argv), 1, 1


#: workload -> rows: (label, ROADMAP seconds per call, row maker, its args)
ROWS = {
    "selective-grid": [
        ("StateVector(...) D=4", 7e-6, _statevector, (4,)),
        ("StateVector(...) D=64", 7e-6, _statevector, (64,)),
        ("haar_unitary D=4", 75e-6, _haar_unitary, (4,)),
        ("haar_unitary D=64", 0.9e-3, _haar_unitary, (64,)),
        ("selective game (d=0, n=3)", 0.50e-3, _selective_game, (0, 3)),
        ("selective game (d=8, n=6)", 2.6e-3, _selective_game, (8, 6)),
    ],
    "forger-cli": [
        ("run_forgery n=3", 0.5e-3, _run_forgery, (3,)),
    ],
    "audit-battery": [
        ("DensityMatrix(...) D=4", 34e-6, _density_matrix, (4,)),
        ("DensityMatrix(...) D=64", 0.49e-3, _density_matrix, (64,)),
        ("fidelity_mixed D=4", 62e-6, _fidelity_mixed, (4,)),
        ("fidelity_mixed D=64", 1.6e-3, _fidelity_mixed, (64,)),
        ("cli verify-all", 0.43, _verify_all, ()),
    ],
}


def measure(workload: str, seed: int, workdir: str) -> list[dict]:
    """Time this workload's baseline rows; one dict per row."""
    rng = np.random.default_rng([seed, 1])
    rows = []
    for label, roadmap_s, make, make_args in ROWS[workload]:
        fn, number, units = make(rng, workdir, *make_args)
        ref_before = reference()
        measured = _per_call(fn, number) / units
        nominal = measured * REFERENCE_S / ((ref_before + reference()) / 2.0)
        ratio = nominal / roadmap_s
        rows.append({
            "row": label,
            "measured_s": measured,
            "nominal_s": nominal,
            "roadmap_s": roadmap_s,
            "ratio": ratio,
            "verdict": "agrees" if AGREE[0] <= ratio <= AGREE[1] else "DISAGREES",
        })
    return rows
