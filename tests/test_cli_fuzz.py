"""The CLI's exit-code contract over its whole grammar, fuzzed in process.

Every size, seed and float flag takes an edge value (or its default), every
work count one of -1, 0, 1 and 2, so each run is small; ``QPUF_MAX_DIM=64``
makes every size past it a domain error at once.  Whatever the flags, ``main``
exits 0 or 2 (1 too for the two subcommands whose audits can fail), raises
nothing but argparse's own ``SystemExit(2)``, never exits 70 and prints no
traceback; an output it writes replays byte for byte.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qpuflab import cli  # noqa: E402

EDGES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", str(2**31), str(2**63), str(2**64))
COUNTS = ("-1", "0", "1", "2")
#: exit codes each subcommand may return; 1 only where an audit can fail
EXITS = {
    "forge-sweep": {0, 2},
    "selective-bound": {0, 1, 2},
    "verify-all": {0, 1, 2},
    "game": {0, 2},
    "qe-demo": {0, 2},
}


def edge_flags(draw, *flags):
    """Each flag at an edge value, or at its default twice as often, so that
    some runs get past every check; ``--flag=value`` keeps a value such as
    ``-inf`` from reading as an option."""
    values = [draw(st.sampled_from((None,) * 2 * len(EDGES) + EDGES)) for _ in flags]
    return [f"{flag}={v}" for flag, v in zip(flags, values) if v is not None]


def count_flags(draw, *flags):
    return [f"{flag}={draw(st.sampled_from(COUNTS))}" for flag in flags]


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(sorted(EXITS)))
    argv = [sub] + edge_flags(draw, "--seed")
    if sub == "forge-sweep":
        argv += edge_flags(draw, "--qubits", "--margin")
        argv += count_flags(draw, "--mu-steps", "--trials")
    elif sub == "selective-bound":
        argv += edge_flags(draw, "--qubits", "--d", "--delta")
        argv += count_flags(draw, "--trials")
    elif sub == "verify-all":
        argv += draw(st.sampled_from(([], ["--negative-control"])))
    elif sub == "game":
        adversary = draw(st.sampled_from(("forger", "subspace", "random", "tomography")))
        own, other = ("qex", "qsel") if adversary == "forger" else ("qsel", "qex")
        argv += [f"--adversary={adversary}", f"--mode={draw(st.sampled_from((own,) * 3 + (other,)))}"]
        argv += edge_flags(draw, "--qubits", "--mu", "--d", "--delta")
        argv += count_flags(draw, "--trials")
        test = draw(st.sampled_from(("ideal", "swap")))
        argv += [f"--test={test}"] + (count_flags(draw, "--kappa1", "--kappa2") if test == "swap" else [])
        argv += draw(st.sampled_from(([], ["--privileged"])))
    else:
        argv += edge_flags(draw, "--qubits", "--mu", "--margin")
    return argv


def run(argv):
    """``main``'s exit code and stderr; argparse's rejection counts as 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # raised by parse_args, before main's try
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines())
# a qsel game ignores --mu, so this run exits 0; its replay must pass the
# value as one token, since argparse reads a lone "-inf" as an option
@example(argv=["game", "--adversary=subspace", "--mode=qsel", "--mu=-inf", "--trials=1"])
def test_every_command_line_keeps_the_exit_code_contract(argv, out_dir):
    out = out_dir / "out"
    out.unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("QPUF_MAX_DIM", "64")
        code, err = run(argv + [f"--out={out}"])
        assert code in EXITS[argv[0]], (code, err)
        assert "Traceback" not in err
        if code != 2:
            again = out_dir / "again"
            manifest = f"{out}.manifest.json"
            assert run(["replay", f"--manifest={manifest}", f"--out={again}"]) == (code, err)
            assert again.read_bytes() == out.read_bytes()
