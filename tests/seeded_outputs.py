"""Write the seeded CLI outputs and check them byte for byte against a parent's.

Usage::

    python tests/seeded_outputs.py OUT [PARENT_OUT [--changed NAME ...]]

Runs sixteen seeded subcommands with the ``qpuflab`` package of this checkout
(the ``src/`` directory beside this one) and writes each output, with its
``.manifest.json``, into OUT.  PARENT_OUT is the OUT of the same script run
from a checkout of the parent commit (copy this file into that checkout's
``tests/`` if it lacks it).  Given PARENT_OUT, every output is compared with
the parent's bytes, and every parent manifest is replayed with this code into
``OUT/replay/`` and compared too.  Manifests themselves are not compared:
they record the wall-clock time of the run.

``--changed`` names the outputs a change to the random stream or to a
report is meant to alter.  Each of them must differ from the parent's bytes,
and its own new manifest must replay to the new bytes; the parent's
manifest is not replayed for it.  Every other output is held to the parent's
bytes as above.

The summary also reports this checkout's ``src/qpuflab`` source lines and
``len(qpuflab.__all__)``, the two code-size figures ROADMAP tracks.

Exits 1 if an output or replay breaks these rules, or if a run exits with
another code than the one listed here; 0 otherwise.  Pytest does not
collect this file, because its name lacks the ``test_`` prefix.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import qpuflab  # noqa: E402
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
    # trial counts that are no multiple of the device-draw chunk (14 games at
    # (d=8, n=5), 85 at (d=2, n=4)), so the last chunk is a partial one
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


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="seeded_outputs.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("out", type=Path)
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("--changed", nargs="+", default=[], metavar="NAME")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.changed) - set(RUNS))
    if unknown:
        parser.error(f"--changed names no seeded output: {', '.join(unknown)}")
    if args.changed and args.parent is None:
        parser.error("--changed needs PARENT_OUT")
    return args


def _replay(manifest: Path, out: Path, want: Path, code: int, whose: str) -> list[str]:
    """Replay ``manifest`` into ``out``; problems unless it exits ``code``
    and writes the bytes of ``want``."""
    problems = []
    got = qpuflab_main(["replay", "--manifest", str(manifest), "--out", str(out)])
    if got != code:
        problems.append(f"{out.name}: replay exit {got}, expected {code}")
    if not _same_bytes(out, want):
        problems.append(f"{out.name}: replay of the {whose} manifest differs")
    return problems


def main(argv: list[str]) -> int:
    args = _parse(argv)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    for name, (cmd, code) in RUNS.items():
        got = qpuflab_main(cmd + ["--out", str(out / name)])
        if got != code:
            problems.append(f"{name}: exit {got}, expected {code}")
    if args.parent is not None:
        parent: Path = args.parent
        replay = out / "replay"
        replay.mkdir(exist_ok=True)
        for name, (_, code) in RUNS.items():
            manifest = name + ".manifest.json"
            if name in args.changed:
                if _same_bytes(out / name, parent / name):
                    problems.append(f"{name}: listed as changed, but equals the parent's")
                problems += _replay(out / manifest, replay / name, out / name, code, "new")
            else:
                if not _same_bytes(out / name, parent / name):
                    problems.append(f"{name}: output differs from the parent's")
                problems += _replay(
                    parent / manifest, replay / name, parent / name, code, "parent"
                )
    for line in problems:
        print("DIFFERS", line)
    checked = "outputs" if args.parent is None else "outputs and replays"
    changed = f" ({len(args.changed)} listed as changed)" if args.changed else ""
    print(f"{len(RUNS)} {checked}{changed}: {len(problems)} problems")
    lines = sum(len(f.read_text().splitlines()) for f in (SRC / "qpuflab").glob("*.py"))
    print(f"src/qpuflab: {lines} lines, {len(qpuflab.__all__)} names in __all__")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
