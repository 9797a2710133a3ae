"""CLI behavior: formats, manifests, byte-identical replay, and exit codes.

Everything except the console-script smoke test runs in-process through
``cli.main`` so coverage and debugging stay simple. The smoke test builds the
``qpuflab`` launcher from ``[project.scripts]`` in ``pyproject.toml`` and runs
it in a fresh process against this checkout's package, so it needs no install.
"""

import csv
import itertools
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from oracles import transcript_record
import qpuflab
from qpuflab import GameConfig, QeForger, QPufGenParams, StateVector, SubspaceAdversary
from qpuflab import TestConfig, Transcript, WinRateEstimate, cli, games, run_game

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher pip writes for a console script (distlib's ScriptMaker template).
LAUNCHER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestForgeSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(
            ["forge-sweep", "--qubits", "2", "--mu-steps", "4", "--trials", "2"],
            capsys,
        )
        assert code == 0
        assert err == ""
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4
        assert [float(r["mu"]) for r in rows] == [0.0, 0.25, 0.5, 0.75]
        for r in rows:
            assert float(r["mean_fidelity"]) >= float(r["theory_bound"]) - 1e-8
            assert r["trials"] == "2"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            [
                "forge-sweep", "--qubits", "2", "--mu-steps", "3",
                "--trials", "1", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {
            "mu", "mean_fidelity", "theory_bound", "p_succ_stage1", "trials",
        }

    def test_writes_file_and_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            [
                "forge-sweep", "--qubits", "2", "--mu-steps", "2",
                "--trials", "1", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""  # file mode writes nothing to stdout
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "forge-sweep"
        assert manifest["seed"] == 7
        assert manifest["out"] == str(out_path)
        assert manifest["flags"]["qubits"] == 2
        # None-valued and bookkeeping entries stay out of the manifest
        assert "margin" not in manifest["flags"]
        assert "out" not in manifest["flags"]
        assert "subcommand" not in manifest["flags"]


class TestReplay:
    def test_byte_identical_reproduction(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        run_cli(
            [
                "forge-sweep", "--qubits", "2", "--mu-steps", "3",
                "--trials", "2", "--seed", "123", "--out", str(first),
            ],
            capsys,
        )
        second = tmp_path / "b.csv"
        code, _, _ = run_cli(
            [
                "replay", "--manifest", str(first) + ".manifest.json",
                "--out", str(second),
            ],
            capsys,
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_replay_without_override_rewrites_in_place(self, tmp_path, capsys):
        target = tmp_path / "demo.json"
        run_cli(["qe-demo", "--qubits", "2", "--out", str(target)], capsys)
        original = target.read_bytes()
        target.write_bytes(b"clobbered")
        code, _, _ = run_cli(
            ["replay", "--manifest", str(target) + ".manifest.json"], capsys
        )
        assert code == 0
        assert target.read_bytes() == original


class TestOverwrite:
    """Outputs are rewritten in place, tail cut, with the bytes, inode and mode
    of ``open(path, "w")``."""

    GAME = [
        "game", "--mode", "qex", "--adversary", "forger", "--mu", "0.5",
        "--qubits", "2", "--trials", "5", "--delta", "0.9", "--seed", "7",
    ]

    def test_game_over_a_larger_file_holds_only_the_new_bytes(self, tmp_path, capsys):
        target = tmp_path / "game.jsonl"
        manifest = tmp_path / "game.jsonl.manifest.json"
        assert run_cli(self.GAME + ["--out", str(target)], capsys)[0] == 0
        fresh, fresh_manifest = target.read_bytes(), json.loads(manifest.read_bytes())
        junk = np.random.default_rng(0).bytes(100_000)
        target.write_bytes(junk)
        manifest.write_bytes(junk)
        os.chmod(target, 0o640)
        before = [os.stat(p) for p in (target, manifest)]
        assert run_cli(self.GAME + ["--out", str(target)], capsys)[0] == 0
        assert target.read_bytes() == fresh
        written = manifest.read_bytes()
        record = json.loads(written)
        assert written == (json.dumps(record, sort_keys=True, indent=2) + "\n").encode()
        for r in (record, fresh_manifest):
            del r["created_unix"]
        assert record == fresh_manifest
        for old, p in zip(before, (target, manifest)):
            new = os.stat(p)
            assert (new.st_ino, new.st_mode) == (old.st_ino, old.st_mode)
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640

    def test_a_new_file_gets_0o666_under_the_umask(self, tmp_path, capsys):
        mask = os.umask(0o027)
        try:
            argv = ["qe-demo", "--qubits", "2", "--out", str(tmp_path / "d")]
            code, _, _ = run_cli(argv, capsys)
        finally:
            os.umask(mask)
        assert code == 0
        for name in ("d", "d.manifest.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640

    def test_writing_to_dev_null_raises_nothing(self):
        cli._write_in_place(os.devnull, "x" * 10_000)


class TestVerifyAll:
    def test_standard_battery_exits_zero(self, capsys):
        code, out, _ = run_cli(["verify-all", "--seed", "5"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)

    def test_negative_control_flips_the_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["verify-all", "--seed", "5", "--negative-control"], capsys
        )
        assert code == 1
        failed = [r["name"] for r in json.loads(out) if not r["passed"]]
        assert failed == ["negative-control-collision"]


class TestGame:
    def test_forger_game_jsonl(self, capsys):
        code, out, _ = run_cli(
            [
                "game", "--mode", "qex", "--adversary", "forger", "--mu", "0.5",
                "--qubits", "2", "--trials", "20", "--delta", "0.9",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 21  # one record per game plus the summary
        records = [json.loads(line) for line in lines[:-1]]
        assert all(r["mode"] == "qex" and r["k"] == 2 for r in records)
        summary = json.loads(lines[-1])["summary"]
        assert summary["win_rate"] == 1.0
        assert summary["adversary"] == "forger"

    def test_random_guesser_selective_game(self, capsys):
        code, out, _ = run_cli(
            [
                "game", "--mode", "qsel", "--adversary", "random",
                "--qubits", "2", "--trials", "10", "--delta", "0.3",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert 0.0 <= summary["win_rate"] <= 1.0
        assert summary["trials"] == 10

    def test_swap_test_variant(self, capsys):
        code, out, _ = run_cli(
            [
                "game", "--mode", "qsel", "--adversary", "subspace", "--d", "4",
                "--qubits", "2", "--trials", "10", "--test", "swap",
                "--kappa1", "2", "--kappa2", "2",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["win_rate"] == 1.0  # full knowledge always passes swap

    def test_tomography_requires_the_grant_flag(self, capsys):
        code, _, err = run_cli(
            ["game", "--mode", "qsel", "--adversary", "tomography", "--qubits", "2"],
            capsys,
        )
        assert code == 2
        assert "--privileged" in err

    def test_tomography_with_grant_wins(self, capsys):
        code, out, _ = run_cli(
            [
                "game", "--mode", "qsel", "--adversary", "tomography",
                "--privileged", "--qubits", "2", "--trials", "5",
                "--delta", "0.99",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["win_rate"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--mode", "qsel", "--adversary", "forger", "--mu", "0.5"],
            ["game", "--mode", "qex", "--adversary", "forger"],  # missing --mu
            ["game", "--mode", "qex", "--adversary", "subspace", "--mu", "0.5"],
            ["game", "--mode", "qex", "--adversary", "random", "--mu", "0.5"],
        ],
    )
    def test_incompatible_requests_exit_two(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_domain_error_surfaces_as_exit_two(self, capsys):
        # mu above the forger's margin cap for one qubit (0.75)
        code, _, err = run_cli(
            [
                "game", "--mode", "qex", "--adversary", "forger",
                "--mu", "0.9", "--qubits", "1", "--trials", "2",
            ],
            capsys,
        )
        assert code == 2
        assert "margin" in err


    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("estimate_win_rate", ["game", "--mode", "qsel", "--adversary", "random"]),
            ("run_all_checks", ["verify-all"]),
        ],
    )
    def test_exhausted_memory_exits_two(self, monkeypatch, capsys, callee, argv):
        # a device too large for the host must not read as an audit violation
        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, callee, exhaust)
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "memory" in err

    def test_internal_error_exits_seventy(self, monkeypatch, capsys):
        # a bug is neither a domain error (2) nor an audit violation (1)
        def crash(*args, **kwargs):
            raise ValueError("planted bug")

        monkeypatch.setattr(cli, "run_all_checks", crash)
        code, out, err = run_cli(["verify-all", "--seed", "5"], capsys)
        assert code == 70
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" in err
        assert "ValueError: planted bug" in err


class TestTranscriptLines:
    """``game``'s lines from the estimate's columns and one template, against
    json's own encoding of each game's record."""

    CONFIGS = [
        GameConfig(
            mode="qex", gen=QPufGenParams(qubits=2, seed=1),
            test=TestConfig(kind="swap"), learning_budget=2, seed=5, mu=0.5,
        ),
        GameConfig(
            mode="qsel", gen=QPufGenParams(qubits=3, seed=1),
            test=TestConfig(kind="ideal", delta=0.5), learning_budget=12, seed=5,
        ),
    ]
    FIDELITIES = [
        0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.1 + 0.2, np.float64(2.0) / 3.0,
        float("nan"), float("inf"), float("-inf"),
    ]
    GAMES = {
        "subspace": (
            ["--mode", "qsel", "--adversary", "subspace", "--d", "3", "--qubits", "3"],
            lambda: SubspaceAdversary(3),
        ),
        "forger": (
            ["--mode", "qex", "--adversary", "forger", "--mu", "0.75", "--test", "swap",
             "--kappa1", "3", "--kappa2", "4"],
            lambda: QeForger(0.75),
        ),
    }

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["qex", "qsel"])
    def test_lines_are_the_records_json(self, cfg):
        challenge = StateVector(np.array([1.0, 0.0]))
        played = [
            Transcript((), d, challenge, b, f)
            for (d, b), f in zip(itertools.cycle([(0, 0), (3, 1), (12, 1)]), self.FIDELITIES)
        ]
        want = [json.dumps(transcript_record(cfg, t), sort_keys=True) for t in played]
        columns = WinRateEstimate(
            0.0, 0.0, 0, len(played),
            outcomes=np.array([t.outcome_b for t in played], dtype=np.int64),
            fidelities=np.array([t.fidelity_of_guess for t in played]),
            d_spanned=np.array([t.d_spanned for t in played], dtype=np.int64),
        )
        assert cli._transcript_lines(cfg, columns) == want

    @pytest.mark.parametrize("game", GAMES.values(), ids=GAMES.keys())
    def test_game_output_keeps_the_per_record_encoding(self, game, tmp_path, monkeypatch):
        argv, factory = game
        argv = ["game", *argv, "--trials", "40", "--seed", "23"]
        assert cli.main([*argv, "--out", str(tmp_path / "template.jsonl")]) == 0

        def records(cfg, estimate):
            # each game's record as run_game plays it on its own child stream
            children = np.random.SeedSequence(cfg.seed).spawn(estimate.trials)
            played = [run_game(cfg, factory(), np.random.default_rng(c)) for c in children]
            return [json.dumps(transcript_record(cfg, t), sort_keys=True) for t in played]

        monkeypatch.setattr(cli, "_transcript_lines", records)
        assert cli.main([*argv, "--out", str(tmp_path / "records.jsonl")]) == 0
        lines = (tmp_path / "template.jsonl").read_text().splitlines()
        assert lines == (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(lines) == 41

    @pytest.mark.parametrize("game", GAMES.values(), ids=GAMES.keys())
    def test_game_builds_no_transcript(self, game, tmp_path, monkeypatch):
        # both chunk forms write their lines from the columns alone
        def refuse(*args, **kwargs):
            raise AssertionError("game built a Transcript")

        monkeypatch.setattr(games, "Transcript", refuse)
        argv = ["game", *game[0], "--trials", "30", "--out", str(tmp_path / "g.jsonl")]
        assert cli.main(argv) == 0
        assert len((tmp_path / "g.jsonl").read_text().splitlines()) == 31
        with pytest.raises(AssertionError, match="Transcript"):
            run_game(self.CONFIGS[1], SubspaceAdversary(3))  # the refusal is live

    def test_only_a_column_with_a_non_finite_value_encodes_value_by_value(self, monkeypatch):
        # an all-finite column is written by float.__repr__ alone; one NaN
        # among finite games sends its column back to the per-value rule
        cfg, calls, encode = self.CONFIGS[1], [], cli._json_float
        monkeypatch.setattr(cli, "_json_float", lambda x: calls.append(x) or encode(x))
        finite = [0.25, 1.0 - 2.0**-53, 0.1 + 0.2]
        for fidelities, per_value in ((finite, 0), ([*finite, float("nan")], 4)):
            played = [Transcript((), 3, None, 1, f) for f in fidelities]
            columns = WinRateEstimate(
                0.0, 0.0, 0, len(played),
                outcomes=np.ones(len(played), dtype=np.int64),
                fidelities=np.array(fidelities),
                d_spanned=np.full(len(played), 3, dtype=np.int64),
            )
            want = [json.dumps(transcript_record(cfg, t), sort_keys=True) for t in played]
            assert cli._transcript_lines(cfg, columns) == want
            assert len(calls) == per_value
            calls.clear()

    def test_no_json_call_per_game(self, tmp_path, monkeypatch):
        calls, dumps = [], json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append(1) or dumps(*a, **kw))
        counts = []
        for trials in ("1", "30"):
            out = str(tmp_path / f"game-{trials}.jsonl")
            argv = ["game", "--mode", "qex", "--adversary", "forger", "--mu", "0.5"]
            assert cli.main([*argv, "--trials", trials, "--out", out]) == 0
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1]


class TestQeDemo:
    def test_payload_values(self, capsys):
        code, out, _ = run_cli(["qe-demo", "--qubits", "2", "--mu", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 0.5
        assert payload["alpha"] == pytest.approx(2**-0.5)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["theory_bound"] == 1.0
        assert payload["device"].startswith("qpuf-n2-")


class TestSelectiveBound:
    def test_single_row_with_bound(self, capsys):
        code, out, _ = run_cli(
            [
                "selective-bound", "--qubits", "2", "--d", "1",
                "--trials", "50", "--delta", "0.5",
            ],
            capsys,
        )
        assert code == 0
        (row,) = list(csv.DictReader(out.splitlines()))
        assert row["bound"] == "0.5"
        assert 0.0 <= float(row["empirical_rate"]) <= 1.0


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["expunge"])
        capsys.readouterr()

    def test_game_requires_mode_and_adversary(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["game", "--mode", "qsel"])
        capsys.readouterr()

    def test_parser_is_built_once_per_process(self):
        # replay re-enters main: a game and its replay built it three times
        assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    """Bad input exits 2 with an ``error:`` line, never 1 (audit violations)."""

    def assert_usage_error(self, argv, capsys, needle):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert needle in err

    def test_malformed_dimension_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("QPUF_MAX_DIM", "abc")
        self.assert_usage_error(["qe-demo", "--qubits", "2"], capsys, "QPUF_MAX_DIM")

    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--mode", "qsel", "--adversary", "random"],
            ["game", "--mode", "qsel", "--adversary", "tomography", "--privileged"],
            ["selective-bound"],
        ],
        ids=["game-random", "game-tomography", "selective-bound"],
    )
    def test_huge_register_exits_before_forming_its_size(self, argv, capsys):
        # 2**(10**9) alone is a 125 MB integer; the cap is decided without it
        tracemalloc.start()
        try:
            self.assert_usage_error(
                argv + ["--qubits", "1000000000", "--trials", "1"], capsys, "cap"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_out_naming_a_directory(self, tmp_path, capsys):
        self.assert_usage_error(
            ["qe-demo", "--qubits", "2", "--out", str(tmp_path)], capsys, "cannot write"
        )

    def test_replay_of_a_missing_manifest(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.manifest.json")
        self.assert_usage_error(["replay", "--manifest", missing], capsys, missing)

    def test_replay_of_a_manifest_without_subcommand(self, tmp_path, capsys):
        empty = tmp_path / "empty.manifest.json"
        empty.write_text("{}", encoding="utf-8")
        self.assert_usage_error(
            ["replay", "--manifest", str(empty)], capsys, "subcommand"
        )

    @pytest.mark.parametrize(
        "text",
        ["[" * 200000 + "]" * 200000, '{"a":' * 200000 + "1" + "}" * 200000],
        ids=["array", "object"],
    )
    def test_replay_of_a_deeply_nested_manifest(self, text, tmp_path, capsys):
        deep = tmp_path / "deep.manifest.json"
        deep.write_text(text, encoding="utf-8")
        self.assert_usage_error(
            ["replay", "--manifest", str(deep)], capsys, "RecursionError"
        )

    def test_forge_sweep_without_mu_steps(self, capsys):
        self.assert_usage_error(
            ["forge-sweep", "--qubits", "2", "--mu-steps", "0", "--trials", "1"],
            capsys,
            "mu-steps",
        )

    def test_forge_sweep_without_trials(self, capsys):
        self.assert_usage_error(
            ["forge-sweep", "--qubits", "2", "--mu-steps", "2", "--trials", "0"],
            capsys,
            "trials",
        )

    @pytest.mark.parametrize(
        "subcommand",
        [
            ["verify-all"],
            ["forge-sweep", "--qubits", "2", "--mu-steps", "1", "--trials", "1"],
            ["game", "--mode", "qsel", "--adversary", "random", "--trials", "1"],
            ["qe-demo", "--qubits", "2"],
            ["selective-bound", "--qubits", "2", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64(self, subcommand, seed, capsys):
        self.assert_usage_error(
            subcommand + ["--seed", str(seed)], capsys, "unsigned 64-bit"
        )

    def test_replay_of_a_replay_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        record = {
            "subcommand": "replay",
            "flags": {"manifest": str(manifest)},
            "out": "x",
        }
        manifest.write_text(json.dumps(record), encoding="utf-8")
        self.assert_usage_error(
            ["replay", "--manifest", str(manifest)], capsys, "records a replay"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["qe-demo", "--qubits", "2", "--mu", "1.5", "--margin", "-1"],
            ["forge-sweep", "--qubits", "2", "--mu-steps", "2", "--trials", "1",
             "--margin", "-5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_margin_outside_unit_interval(self, argv, capsys):
        self.assert_usage_error(argv, capsys, "margin")

    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--mode", "qsel", "--adversary", "random", "--trials", "2"],
            ["verify-all", "--negative-control"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out(self, argv, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "x")
        self.assert_usage_error(argv + ["--out", out], capsys, out)

    def test_replay_of_a_manifest_with_non_string_out(self, tmp_path, capsys):
        # a non-string subcommand is guarded the same way as a non-string out
        bad = [
            ({"subcommand": "qe-demo", "out": 5}, "out must be a string"),
            ({"subcommand": 5, "out": "x"}, "subcommand must be a string"),
            ({"subcommand": ["game"], "out": "x"}, "subcommand must be a string"),
        ]
        for fields, needle in bad:
            manifest = tmp_path / "m.json"
            record = {"flags": {"qubits": 2}, **fields}
            manifest.write_text(json.dumps(record), encoding="utf-8")
            self.assert_usage_error(
                ["replay", "--manifest", str(manifest)], capsys, needle
            )


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["qpuflab"]
        ep = EntryPoint(name="qpuflab", value=value, group="console_scripts")
        assert ep.load() is cli.main, f"[project.scripts] qpuflab = {value!r}"

        exe = tmp_path / "qpuflab"
        exe.write_text(
            LAUNCHER.format(python=sys.executable, module=ep.module, attr=ep.attr)
        )
        exe.chmod(0o755)
        # The package the suite imported goes first, so a stale install never runs.
        src = str(Path(qpuflab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def launch(*argv):
            return subprocess.run(
                [str(exe), *argv], capture_output=True, text=True, env=env, timeout=120
            )

        proc = launch("qe-demo", "--qubits", "2")
        assert proc.returncode == 0, f"launcher should exit 0: {proc.stderr}"
        assert json.loads(proc.stdout)["theory_bound"] == 1.0

        proc = launch("qe-demo", "--qubits", "0")
        assert proc.returncode == 2, f"domain error should exit 2: {proc.stderr}"
        assert proc.stdout == ""
        assert "error:" in proc.stderr
