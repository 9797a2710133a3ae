"""Command-line front end: sweeps, game runs, audits, and exact replays.

Every run that writes an output file also writes ``<out>.manifest.json``
recording the subcommand, its flags, and the seed.  ``replay`` re-executes a
manifest and, because every code path is seeded, reproduces the output file
byte for byte.  Both files are rewritten in place: an existing file keeps its
inode and mode, and its tail past the new bytes is cut.  Nothing is synced, so
after a crash a rewritten file may hold old, new or mixed blocks; ``replay``
writes it again.

Exit codes: 0 on success, 1 when an audit reports violations, 2 on usage or
domain errors, 70 on an internal error (a bug), never an audit result.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
import time
import traceback
from collections.abc import Callable

import numpy as np

from . import __version__
from .adversaries import (
    PrivilegedReadout,
    QeForger,
    RandomGuesser,
    SubspaceAdversary,
    TomographyAdversary,
    forgery_fidelity_bound,
    run_forgery,
)
from .errors import PrivilegeRequired, QpufLabError
from .games import GameConfig, estimate_win_rate
from .numerics import _check_seed
from .qpuf import QPufGenParams, qgen
from .testers import TestConfig
from .verify import run_all_checks


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_in_place(path: str, text: str) -> None:
    """``open(path, "w")`` without first truncating an existing file to zero."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):  # not a FIFO or /dev/null
            fh.truncate()


def _write_with_manifest(args: argparse.Namespace, subcommand: str, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "subcommand") and v is not None
    }
    manifest = {
        "subcommand": subcommand,
        "flags": flags,
        "seed": args.seed,
        "created_unix": int(time.time()),
        "version": __version__,
        "out": args.out,
    }
    try:
        _write_in_place(args.out, text)
        manifest_text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        _write_in_place(args.out + ".manifest.json", manifest_text)
    except OSError as exc:
        raise QpufLabError(f"cannot write {args.out}: {exc}") from None


def _rows_to_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rows_to_json(header: list[str], rows: list[list[str]]) -> str:
    objs = [dict(zip(header, row)) for row in rows]
    return json.dumps({"rows": objs}, sort_keys=True, indent=2) + "\n"


def _emit_rows(
    args: argparse.Namespace, subcommand: str, header: list[str], rows: list[list[str]]
) -> None:
    if args.format == "json":
        text = _rows_to_json(header, rows)
    else:
        text = _rows_to_csv(header, rows)
    _write_with_manifest(args, subcommand, text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_forge_sweep(args: argparse.Namespace) -> int:
    if args.mu_steps < 1 or args.trials < 1:
        raise QpufLabError("forge-sweep needs --mu-steps >= 1 and --trials >= 1")
    rng = np.random.default_rng(args.seed)
    header = ["mu", "mean_fidelity", "theory_bound", "p_succ_stage1", "trials"]
    rows: list[list[str]] = []
    for j in range(args.mu_steps):
        mu = j / args.mu_steps
        fids: list[float] = []
        p_succs: list[float] = []
        for _ in range(args.trials):
            seed = int(rng.integers(2**63))
            instance = qgen(QPufGenParams(qubits=args.qubits, seed=seed))
            report = run_forgery(instance, mu, margin=args.margin)
            fids.append(report.fidelity)
            p_succs.append(report.p_succ_stage1)
        rows.append(
            [
                _fmt(mu),
                _fmt(float(np.mean(fids))),
                _fmt(forgery_fidelity_bound(mu)),
                _fmt(float(np.mean(p_succs))),
                str(args.trials),
            ]
        )
    _emit_rows(args, "forge-sweep", header, rows)
    return 0


def _cmd_selective_bound(args: argparse.Namespace) -> int:
    cfg = GameConfig(
        mode="qsel",
        gen=QPufGenParams(qubits=args.qubits, seed=args.seed),
        test=TestConfig(kind="ideal", delta=args.delta),
        learning_budget=args.d,
        seed=args.seed,
    )
    dim = 2**args.qubits  # the generator parameters above capped it
    estimate = estimate_win_rate(cfg, lambda: SubspaceAdversary(args.d), args.trials)
    header = ["d", "D", "delta", "empirical_rate", "bound", "stderr", "trials"]
    rows = [
        [
            str(args.d),
            str(dim),
            _fmt(args.delta),
            _fmt(estimate.win_rate),
            _fmt((args.d + 1) / dim),
            _fmt(estimate.stderr),
            str(args.trials),
        ]
    ]
    _emit_rows(args, "selective-bound", header, rows)
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    reports = run_all_checks(
        args.seed, include_negative_control=args.negative_control
    )
    text = (
        json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2) + "\n"
    )
    _write_with_manifest(args, "verify-all", text)
    return 0 if all(r.passed for r in reports) else 1


def _make_test_config(args: argparse.Namespace) -> TestConfig:
    if args.test == "ideal":
        return TestConfig(kind="ideal", delta=args.delta)
    return TestConfig(kind="swap", kappa1=args.kappa1, kappa2=args.kappa2)


def _game_adversary(args: argparse.Namespace) -> tuple[str, Callable, int]:
    """The adversary's game mode, factory and learning budget."""
    if args.adversary == "forger":
        if args.mu is None:
            raise QpufLabError("qex games need --mu")
        return "qex", lambda: QeForger(args.mu), 2
    if args.adversary == "subspace":
        return "qsel", lambda: SubspaceAdversary(args.d), args.d
    if args.adversary == "random":
        return "qsel", RandomGuesser, 0
    # "tomography", the last of the parser's choices
    if not args.privileged:
        raise PrivilegeRequired(
            "tomography reads amplitudes; pass --privileged to grant that"
        )
    readout = PrivilegedReadout()
    return "qsel", lambda: TomographyAdversary(readout), 2**args.qubits


def _transcript_lines(cfg: GameConfig, transcripts) -> list[str]:
    """``json.dumps(transcript_record(cfg, t), sort_keys=True)`` for each game,
    from one template: ``k``, ``mode`` and ``n`` are encoded once, and each game
    writes only ``b``, ``d_spanned`` and ``fidelity_of_guess`` (the keys that
    sort first) as json does: by ``int.__repr__`` and ``float.__repr__``, and
    ``NaN`` and ``±Infinity`` by json itself."""
    shared = {"k": cfg.learning_budget, "mode": cfg.mode, "n": cfg.gen.qubits}
    tail = json.dumps(shared, sort_keys=True)[1:]
    return [
        f'{{"b": {int.__repr__(t.outcome_b)}, "d_spanned": {int.__repr__(t.d_spanned)}, '
        f'"fidelity_of_guess": {_json_float(t.fidelity_of_guess)}, {tail}'
        for t in transcripts
    ]


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _cmd_game(args: argparse.Namespace) -> int:
    gen = QPufGenParams(qubits=args.qubits, seed=args.seed)  # caps 2**qubits
    mode, factory, budget = _game_adversary(args)
    if args.mode != mode:
        raise QpufLabError(f"the {args.adversary} adversary plays the {mode} game")
    cfg = GameConfig(
        mode=args.mode,
        gen=gen,
        test=_make_test_config(args),
        learning_budget=budget,
        seed=args.seed,
        mu=args.mu if args.mode == "qex" else None,
    )
    estimate = estimate_win_rate(cfg, factory, args.trials, keep_transcripts=True)
    lines = _transcript_lines(cfg, estimate.transcripts)
    summary = {
        "summary": {
            "adversary": args.adversary,
            "mode": args.mode,
            "n": args.qubits,
            "stderr": estimate.stderr,
            "trials": estimate.trials,
            "win_rate": estimate.win_rate,
            "wins": estimate.wins,
        }
    }
    lines.append(json.dumps(summary, sort_keys=True))
    _write_with_manifest(args, "game", "\n".join(lines) + "\n")
    return 0


def _cmd_qe_demo(args: argparse.Namespace) -> int:
    instance = qgen(QPufGenParams(qubits=args.qubits, seed=args.seed))
    report = run_forgery(instance, args.mu, margin=args.margin)
    payload = {
        "mu": args.mu,
        "n": args.qubits,
        "device": instance.id,
        "alpha": report.plan.alpha,
        "beta": report.plan.beta,
        "p_succ_stage1": report.p_succ_stage1,
        "stage2_pass_prob": report.stage2_pass_prob,
        "fidelity": report.fidelity,
        "theory_bound": report.theory_bound,
    }
    _write_with_manifest(
        args, "qe-demo", json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        argv: list[str] = [manifest["subcommand"]]
        flags = sorted(manifest["flags"].items())
        out = args.out if args.out is not None else manifest["out"]
        if not isinstance(argv[0], str):
            raise TypeError(f"subcommand must be a string, got {argv[0]!r}")
        if not isinstance(out, str):
            raise TypeError(f"out must be a string, got {out!r}")
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError
    ) as exc:
        raise QpufLabError(f"cannot replay {args.manifest}: {exc!r}") from None
    if argv[0] == "replay":
        raise QpufLabError(f"cannot replay {args.manifest}: it records a replay")
    for key, value in flags:
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.append(f"{flag}={value}")  # one token: "-inf" is no option
    argv.extend(["--out", out])
    return main(argv)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, fmt: bool = True) -> None:
    p.add_argument("--seed", type=int, default=7, help="master random seed")
    p.add_argument("--out", type=str, default=None, help="output file path")
    if fmt:
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="table format"
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; its subcommands bind ``_cmd_*`` when it is first built."""
    parser = argparse.ArgumentParser(
        prog="qpuflab",
        description="numerical laboratory for unitary-device unforgeability",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "forge-sweep",
        help="emulation-attack fidelity vs the distinguishability parameter",
    )
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--mu-steps", type=int, default=10)
    p.add_argument("--trials", type=int, default=20, help="devices per mu value")
    p.add_argument("--margin", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_forge_sweep)

    p = sub.add_parser(
        "selective-bound",
        help="subspace-adversary win rate beside (d + 1) / D, its mean-fidelity bound",
    )
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--d", type=int, default=1, help="learned subspace dimension")
    p.add_argument("--delta", type=float, default=0.5, help="acceptance threshold")
    p.add_argument("--trials", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=_cmd_selective_bound)

    p = sub.add_parser("verify-all", help="run the audit battery, JSON report")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="include the deliberately failing audit (forces exit 1)",
    )
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("game", help="Monte Carlo unforgeability games, JSONL")
    p.add_argument("--mode", choices=("qex", "qsel"), required=True)
    p.add_argument(
        "--adversary",
        choices=("forger", "subspace", "random", "tomography"),
        required=True,
    )
    p.add_argument("--qubits", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--test", choices=("swap", "ideal"), default="ideal")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--kappa1", type=int, default=1)
    p.add_argument("--kappa2", type=int, default=1)
    p.add_argument("--privileged", action="store_true")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("qe-demo", help="one audited emulation-attack run, JSON")
    p.add_argument("--qubits", type=int, default=2)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--margin", type=float, default=None)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_qe_demo)

    p = sub.add_parser("replay", help="re-run a manifest; output is byte-identical")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="override the output path")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seed(getattr(args, "seed", 0))
        return args.func(args)
    except QpufLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a run too large for this host is a domain error, not an audit result
        print(
            "error: out of memory; lower --qubits or the QPUF_MAX_DIM cap",
            file=sys.stderr,
        )
        return 2
    except Exception:
        # anything else is a bug: EX_SOFTWARE, so it never reads as an audit's 1
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
