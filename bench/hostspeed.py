"""Host-speed reference loop that the end-to-end times are normalised by.

On a small shared virtual machine the whole guest switches between speed
states that differ by up to 2x, in spells of seconds to tens of seconds
that no steal counter shows.  A run of half a minute can sit wholly in one state, so raw
times of the same code spread by far more than any useful regression
bound.  The benchmark therefore times this fixed loop after every
``SEGMENT_S`` of calls and scales the calls in between by ``REFERENCE_S``
over the mean of the two loop times around them: the figures read as times
on a host that runs the loop in ``REFERENCE_S``.

The loop does the kind of work the library does per trial, and nothing of
the library itself, so no change to qpuflab moves it: small complex QR
decompositions with a phase fix, Hermitian products and ``eigvalsh``, and
per-column dataclass validation in Python.  On a 2-vCPU Intel Xeon guest
its time tracked the selective-grid round time to within 1% in both speed
states, while raw round times differed by 1.9x.  The states of the two
vCPUs change apart, within seconds, hence the short segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: seconds one reference loop takes at the nominal host speed (the fast
#: state of a 2-vCPU Intel Xeon guest); only a unit, fixed for all commits
REFERENCE_S = 0.012
#: loop iterations
ITERATIONS = 45
#: seconds of calls between two reference loops (~15% of the wall time
#: goes to the loop); at 0.25 s the calls' times scattered 1.5x as much
SEGMENT_S = 0.1


@dataclass
class _Column:
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not np.isclose(np.vdot(self.amplitudes, self.amplitudes).real, 1.0):
            raise ValueError("column is not normalised")


def reference() -> float:
    """Seconds one fixed pass of the reference loop takes now."""
    rng = np.random.default_rng(0)
    t0 = perf_counter()
    for k in range(ITERATIONS):
        n = (4, 8, 16)[k % 3]
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        h = q @ np.diag(np.arange(n, dtype=float)) @ q.conj().T
        np.linalg.eigvalsh(h)
        columns = [_Column(q[:, i]) for i in range(n)]
        {i: float(abs(c.amplitudes[0])) for i, c in enumerate(columns)}
        np.allclose(h, h.conj().T)
    return perf_counter() - t0


class HostSpeed:
    """Scales call records by the host speed measured around them."""

    def __init__(self) -> None:
        #: every reference time measured, in order
        self.refs = [reference()]
        self._pending: list = []
        self._since = perf_counter()

    def add(self, record) -> None:
        """Queue a timed record; time the loop once a segment is full."""
        self._pending.append(record)
        if perf_counter() - self._since >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        """Time the loop now and scale every queued record by it."""
        self.refs.append(reference())
        scale = REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2.0)
        for record in self._pending:
            record.scale = scale
        self._pending = []
        self._since = perf_counter()

    def resume(self) -> None:
        """Time the loop afresh as the start of the next segment."""
        self.refs.append(reference())
        self._since = perf_counter()
