"""The traced benchmark patches library names; every one of them must exist.

``bench/tracer.py`` wraps functions at the module attributes their callers
look them up by (``verify.run_stage1``, ``games.span_projector``, the
``__post_init__`` of the validated types, ...).  Installing and undoing the
tracer here turns a refactor that drops or renames such an attribute into a
Tier-1 failure instead of a crash of ``bench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_undoes_cleanly(tracer):
    from qpuflab import emulator, games, numerics, verify

    originals = (
        verify.run_stage1,
        emulator.run_stage1,
        games.span_projector,
        numerics.StateVector.__post_init__,
    )
    patches = tracer.install(tracer.Tracer())
    try:
        assert verify.run_stage1 is not originals[0]
    finally:
        patches.undo()
    assert (
        verify.run_stage1,
        emulator.run_stage1,
        games.span_projector,
        numerics.StateVector.__post_init__,
    ) == originals
