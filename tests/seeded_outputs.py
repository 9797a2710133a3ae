"""Write the seeded CLI outputs and check them byte for byte against a parent's.

Usage::

    python tests/seeded_outputs.py OUT [PARENT_OUT]

Runs sixteen seeded subcommands with the ``qpuflab`` package of this checkout
(the ``src/`` directory beside this one) and writes each output, with its
``.manifest.json``, into OUT.  PARENT_OUT is the OUT of the same script run
from a checkout of the parent commit (copy this file into that checkout's
``tests/`` if it lacks it).  Given PARENT_OUT, every output is compared with
the parent's bytes, and every parent manifest is replayed with this code into
``OUT/replay/`` and compared too.  Manifests themselves are not compared:
they record the wall-clock time of the run.

Exits 1 if any output or replay differs from the parent's, or if a run exits
with another code than the one listed here; 0 otherwise.  Pytest does not
collect this file, because its name lacks the ``test_`` prefix.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qpuflab.cli import main as qpuflab_main  # noqa: E402

_FORGER = [
    "game", "--mode", "qex", "--adversary", "forger",
    "--test", "swap", "--kappa1", "5", "--kappa2", "5",
]
_SUBSPACE = ["game", "--mode", "qsel", "--adversary", "subspace"]

#: output file name -> (argv without --out, expected exit code)
RUNS: dict[str, tuple[list[str], int]] = {
    "game-forger-mu0.5.jsonl": (_FORGER + ["--qubits", "3", "--mu", "0.5"], 0),
    "game-forger-mu0.75.jsonl": (_FORGER + ["--qubits", "3", "--mu", "0.75"], 0),
    # the other forger-cli registers; about a fifth of these games take the
    # stage-2 failure branch
    "game-forger-n2-mu0.75.jsonl": (_FORGER + ["--qubits", "2", "--mu", "0.75"], 0),
    "game-forger-n4-mu0.75.jsonl": (_FORGER + ["--qubits", "4", "--mu", "0.75"], 0),
    "game-subspace-d3-n3.jsonl": (_SUBSPACE + ["--d", "3", "--qubits", "3"], 0),
    "game-subspace-d8-n6.jsonl": (_SUBSPACE + ["--d", "8", "--qubits", "6"], 0),
    # a spanning basis (d = D): the guess skips the complement draw, and its
    # fidelity_of_guess shows the last bits of the normalised guess
    "game-subspace-d4-n2.jsonl": (_SUBSPACE + ["--d", "4", "--qubits", "2"], 0),
    "game-random.jsonl": (["game", "--mode", "qsel", "--adversary", "random"], 0),
    "game-tomography.jsonl": (
        ["game", "--mode", "qsel", "--adversary", "tomography", "--privileged"], 0
    ),
    # trial counts that are no multiple of the device-draw chunk (4 games at
    # n=5, 16 at n=4), so the last chunk is a partial one; from n=6 up every
    # chunk holds one device
    "game-subspace-d8-n5-t31.jsonl": (
        _SUBSPACE + ["--d", "8", "--qubits", "5", "--trials", "31"], 0
    ),
    "selective-bound.csv": (["selective-bound"], 0),
    "selective-bound-d2-n4-t150.csv": (
        ["selective-bound", "--qubits", "4", "--d", "2", "--trials", "150"], 0
    ),
    "forge-sweep.csv": (["forge-sweep"], 0),
    "qe-demo-mu0.75.json": (["qe-demo", "--mu", "0.75"], 0),
    "verify-all-seed3-negative-control.json": (
        ["verify-all", "--seed", "3", "--negative-control"], 1
    ),
    "verify-all-seed11.json": (["verify-all", "--seed", "11"], 0),
}


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    for name, (args, code) in RUNS.items():
        got = qpuflab_main(args + ["--out", str(out / name)])
        if got != code:
            problems.append(f"{name}: exit {got}, expected {code}")
    if len(argv) == 2:
        parent = Path(argv[1])
        replay = out / "replay"
        replay.mkdir(exist_ok=True)
        for name, (_, code) in RUNS.items():
            if not _same_bytes(out / name, parent / name):
                problems.append(f"{name}: output differs from the parent's")
            manifest = parent / (name + ".manifest.json")
            got = qpuflab_main(
                ["replay", "--manifest", str(manifest), "--out", str(replay / name)]
            )
            if got != code:
                problems.append(f"{name}: replay exit {got}, expected {code}")
            if not _same_bytes(replay / name, parent / name):
                problems.append(f"{name}: replay of the parent manifest differs")
    for line in problems:
        print("DIFFERS", line)
    checked = "outputs and replays" if len(argv) == 2 else "outputs"
    print(f"{len(RUNS)} {checked}: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
