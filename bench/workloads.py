"""The benchmark's three closed-loop workloads.

Each workload is a grid of cells.  One round calls the library's public
entry points once per cell, one after another from a single client; every
call's seed derives from the workload seed, the round and the cell, so a
round's inputs do not depend on how many rounds ran before it.

* ``selective-grid``: ``qsel`` games against ``SubspaceAdversary`` with
  ideal tests through ``estimate_win_rate`` over the c07 grid.  Cost sits in
  the Haar device draw, the validated state types and per-game Python; the
  emulator is never touched.
* ``forger-cli``: ``qex`` games of the emulation forger with swap tests
  through ``cli.main``, each followed by a ``replay`` of its manifest.  Cost
  sits in the emulator stages and transcript/manifest writing; the device
  draw is small (D <= 16), so this is the bypass case for device-sampling and
  subspace-validation changes.
* ``audit-battery``: ``verify-all --negative-control`` through ``cli.main``,
  then the c08 distance-contraction and fidelity-disturbance checks.  No
  games: the mixed-state path (``DensityMatrix``, ``channel_apply``,
  ``fidelity_mixed``, ``trace_distance``) carries the cost.

Trials per call follow the library's own callers: 100 games per
``estimate_win_rate`` or ``game`` call (the ``game`` command's default) and
60 pairs per c08 check (what ``verify.run_all_checks`` passes).

Every call is checked against a law, after its time is taken; a call whose
output breaks it counts as failed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qpuflab import adversaries, cli, games, verify
from qpuflab.qpuf import QPufGenParams
from qpuflab.testers import TestConfig


@dataclass
class Outcome:
    """What one top-level call produced."""

    trials: int
    ok: bool
    output: bytes
    bytes_written: int = 0
    wins: int = 0
    alarms: int = 0
    note: str = ""


@dataclass
class Call:
    """One top-level public call: ``run`` is timed, ``check`` judges its result."""

    kind: str  # names the benchmark's span around the call
    cell: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def call_seed(seed: int, round_idx: int, cell_idx: int) -> int:
    """Per-call seed in [0, 2**63), independent of the rounds run before."""
    state = np.random.SeedSequence([seed, round_idx, cell_idx]).generate_state(
        1, dtype=np.uint64
    )
    return int(state[0] >> np.uint64(1))


def _written(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths)


class SelectiveGrid:
    name = "selective-grid"
    #: games per estimate_win_rate call: the ``game`` command's default.  The
    #: c07 test and ``selective-bound`` play 2000, but a round of 15 such
    #: calls takes ~30 s, too long for 100 calls in a run; the per-call fixed
    #: cost is under 0.5% of a call at 100 games
    TRIALS = 100
    CELLS = tuple(
        (d, n, delta)
        for d, n in ((0, 3), (1, 3), (2, 4), (4, 4), (8, 6))
        for delta in (0.3, 0.5, 0.9)
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    @staticmethod
    def _estimate(d: int, n: int, delta: float, s: int, trials: int):
        cfg = games.GameConfig(
            mode="qsel",
            gen=QPufGenParams(qubits=n, seed=s),
            test=TestConfig(kind="ideal", delta=delta),
            learning_budget=d,
            seed=s,
        )
        return games.estimate_win_rate(
            cfg, lambda: adversaries.SubspaceAdversary(d), trials
        )

    @staticmethod
    def _judge(d: int, n: int, delta: float, s: int, trials: int, est) -> Outcome:
        line = f"d={d} n={n} delta={delta} seed={s} wins={est.wins}/{est.trials}\n"
        return Outcome(
            trials=est.trials,
            ok=est.trials == trials and 0 <= est.wins <= trials,
            output=line.encode(),
            wins=est.wins,
        )

    def warmup(self) -> None:
        self._estimate(0, 3, 0.5, call_seed(self.seed, 0, 0), 1)

    def round(self, r: int) -> list[Call]:
        calls = []
        for c, (d, n, delta) in enumerate(self.CELLS):
            key = (d, n, delta, call_seed(self.seed, r, c), self.TRIALS)
            calls.append(Call(
                "estimate", f"d={d},n={n},delta={delta}",
                lambda key=key: self._estimate(*key),
                lambda est, key=key: self._judge(*key, est),
            ))
        return calls

    def failing_cells(self, records) -> dict[str, str]:
        """Cells whose pooled win rate exceeds (d+1)/D + 3 sigma (claim c07)."""
        pooled: dict[str, list[int]] = {}
        for rec in records:
            acc = pooled.setdefault(rec.cell, [0, 0])
            acc[0] += rec.wins
            acc[1] += rec.trials
        bad = {}
        for d, n, delta in self.CELLS:
            cell = f"d={d},n={n},delta={delta}"
            wins, trials = pooled.get(cell, (0, 0))
            if not trials:
                continue
            bound = (d + 1) / 2**n
            sigma = math.sqrt(bound * (1.0 - bound) / trials)
            if wins / trials > bound + 3.0 * sigma:
                bad[cell] = f"pooled win rate {wins}/{trials} above (d+1)/D + 3 sigma"
        return bad


class ForgerCli:
    name = "forger-cli"
    #: games per cli.main game call: the ``game`` command's default; the
    #: per-call fixed cost (argument parsing, manifest, seeding) is ~4% of
    #: a call at 100 games, against ~18% at 20
    TRIALS = 100
    CELLS = tuple((n, mu) for n in (2, 3, 4) for mu in (0.5, 0.75))

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def _game(n: int, mu: float, s: int, trials: int, out: str) -> int:
        return cli.main([
            "game", "--mode", "qex", "--adversary", "forger", "--test", "swap",
            "--kappa1", "5", "--kappa2", "5", "--qubits", str(n), "--mu", str(mu),
            "--trials", str(trials), "--seed", str(s), "--out", out,
        ])

    @staticmethod
    def _judge_game(mu: float, trials: int, out: str, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(trials, False, b"", note=f"game exited {rc}")
        with open(out, "rb") as fh:
            data = fh.read()
        lines = [json.loads(line) for line in data.decode().splitlines()]
        records, summary = lines[:-1], lines[-1]["summary"]
        ok = len(records) == trials and summary["trials"] == trials
        if mu <= 0.5:
            # balanced branch: exact forgery, and F = 1 passes every swap test
            ok = ok and all(
                t["b"] == 1 and t["fidelity_of_guess"] >= 1.0 - 1e-9 for t in records
            )
        return Outcome(
            trials=trials,
            ok=ok,
            output=data,
            bytes_written=_written(out, out + ".manifest.json"),
            note="" if ok else "transcript law broken",
        )

    @staticmethod
    def _replay(original: str, out: str) -> int:
        return cli.main(["replay", "--manifest", original + ".manifest.json", "--out", out])

    @staticmethod
    def _judge_replay(trials: int, original: str, out: str, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(trials, False, b"", note=f"replay exited {rc}")
        with open(original, "rb") as fh_a, open(out, "rb") as fh_b:
            same = fh_a.read() == fh_b.read()
        return Outcome(
            trials=trials,
            ok=same,
            output=b"",
            bytes_written=_written(out, out + ".manifest.json"),
            note="" if same else "replay is not byte-identical",
        )

    def warmup(self) -> None:
        out = os.path.join(self.workdir, "warmup.jsonl")
        self._game(2, 0.5, call_seed(self.seed, 0, 0), 1, out)

    def round(self, r: int) -> list[Call]:
        calls = []
        trials = self.TRIALS
        for c, (n, mu) in enumerate(self.CELLS):
            s = call_seed(self.seed, r, c)
            cell = f"n={n},mu={mu}"
            out = os.path.join(self.workdir, f"game-{c}.jsonl")
            again = os.path.join(self.workdir, f"replay-{c}.jsonl")
            calls.append(Call(
                "game", cell,
                lambda n=n, mu=mu, s=s, out=out: self._game(n, mu, s, trials, out),
                lambda rc, mu=mu, out=out: self._judge_game(mu, trials, out, rc),
            ))
            calls.append(Call(
                "replay", cell,
                lambda out=out, again=again: self._replay(out, again),
                lambda rc, out=out, again=again: self._judge_replay(
                    trials, out, again, rc
                ),
            ))
        return calls

    def failing_cells(self, records) -> dict[str, str]:
        return {}


class AuditBattery:
    name = "audit-battery"
    #: trials argument of each c08 check call: what run_all_checks passes
    TRIALS = 60
    CELLS = tuple((eps, dim) for eps in (0.1, 0.3, 0.5) for dim in (2, 4))
    #: the check verify-all must fail, and the only exact one that may
    EXPECTED_FAILURES = ["negative-control-collision"]
    #: Monte Carlo gates judged per cell at 3 sigma without a family-wise
    #: rate: at fresh seeds a few verify-all calls in a hundred fail one of
    #: them by chance, so their failures are counted as alarms, not as
    #: broken calls
    MONTE_CARLO_GATES = ("haar-subspace-weight", "swap-battery-statistics")

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def _verify_all(self, s: int) -> int:
        out = os.path.join(self.workdir, "verify-all.json")
        return cli.main(["verify-all", "--seed", str(s), "--negative-control", "--out", out])

    def _judge_verify_all(self, rc: int) -> Outcome:
        out = os.path.join(self.workdir, "verify-all.json")
        with open(out, "rb") as fh:
            data = fh.read()
        reports = json.loads(data)
        failing = [r["name"] for r in reports if not r["passed"]]
        exact = [name for name in failing if name not in self.MONTE_CARLO_GATES]
        ok = rc == 1 and exact == self.EXPECTED_FAILURES
        return Outcome(
            # a verify-all call counts as the trials of every check it ran
            trials=sum(r["trials"] for r in reports),
            ok=ok,
            output=data,
            bytes_written=_written(out, out + ".manifest.json"),
            alarms=len(failing) - len(exact),
            note="" if ok else f"verify-all exited {rc}, failing checks {failing}",
        )

    @staticmethod
    def _check(fn_name: str, eps: float, dim: int, s: int, trials: int):
        check = getattr(verify, fn_name)  # looked up per call so tracing sees it
        return check(eps, dim, trials, np.random.default_rng(s))

    @staticmethod
    def _judge_check(trials: int, rep) -> Outcome:
        ok = rep.passed and rep.violations == 0
        return Outcome(
            trials=trials,
            ok=ok,
            output=json.dumps(rep.as_dict(), sort_keys=True).encode(),
            note="" if ok else f"{rep.name} {rep.detail}: {rep.violations} violations",
        )

    def warmup(self) -> None:
        self._check("fidelity_disturbance_check", 0.3, 2, call_seed(self.seed, 0, 0), 2)

    def round(self, r: int) -> list[Call]:
        calls = [Call(
            "verify_all", "verify-all",
            lambda s=call_seed(self.seed, r, 0): self._verify_all(s),
            self._judge_verify_all,
        )]
        c = 1
        trials = self.TRIALS
        for eps, dim in self.CELLS:
            for fn_name in ("distance_contraction_check", "fidelity_disturbance_check"):
                s = call_seed(self.seed, r, c)
                calls.append(Call(
                    "check", f"{fn_name} eps={eps} D={dim}",
                    lambda f=fn_name, eps=eps, dim=dim, s=s: self._check(
                        f, eps, dim, s, trials
                    ),
                    lambda rep: self._judge_check(trials, rep),
                ))
                c += 1
        return calls

    def failing_cells(self, records) -> dict[str, str]:
        """All verify-all calls fail when alarms far outrun the gates' chance rate."""
        runs = [rec for rec in records if rec.kind == "verify_all"]
        alarms = sum(rec.alarms for rec in runs)
        if alarms > max(3, len(runs) / 5):
            return {"verify-all": f"{alarms} Monte Carlo gate alarms in {len(runs)} calls"}
        return {}


WORKLOADS = {w.name: w for w in (SelectiveGrid, ForgerCli, AuditBattery)}


@dataclass
class Record:
    """One top-level call as the runner saw it; its output is only hashed."""

    round: int
    kind: str
    cell: str
    seconds: float
    trials: int = 0
    wins: int = 0
    bytes_written: int = 0
    alarms: int = 0
    failed: bool = False
    note: str = ""
    #: host-speed factor of the call's time (see hostspeed.py)
    scale: float = 1.0
