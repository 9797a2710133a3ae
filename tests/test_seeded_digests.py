"""The seeded CLI outputs against their committed SHA-256 digests.

``seeded_digests.json`` holds one digest per output of
``seeded_outputs.RUNS`` and the environment that produced them.  BLAS
kernels and numpy's SIMD loops differ between machines, so the bits are
per environment: elsewhere the comparison skips and says why.  A change
meant to alter an output refreshes the file with
``python tests/seeded_outputs.py OUT --write-digests`` and names that
output in CHANGES.md; never refresh it to turn a failure into a pass.
"""

import json

import pytest

import seeded_outputs


def test_the_digest_file_names_every_seeded_output():
    committed = json.loads(seeded_outputs.DIGESTS.read_text())
    assert sorted(committed["digests"]) == sorted(seeded_outputs.RUNS)


def test_seeded_outputs_keep_their_committed_digests(tmp_path):
    committed = json.loads(seeded_outputs.DIGESTS.read_text())
    here = seeded_outputs.environment()
    if committed["environment"] != here:
        pytest.skip(f"digests are of {committed['environment']}, this is {here}")
    assert seeded_outputs.write_outputs(tmp_path) == []
    got = seeded_outputs.digests(tmp_path)
    changed = [name for name, digest in committed["digests"].items() if got[name] != digest]
    assert changed == [], f"outputs differ from their committed digests: {changed}"
