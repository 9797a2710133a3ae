"""Monte Carlo trial benchmark for qpuflab.

Usage, from the repository root:

    python3 bench/run.py --workload selective-grid --seed 1 --trace 0

Workloads (see ``workloads.py``): ``selective-grid``, ``forger-cli`` and
``audit-battery``.  Each is a closed loop with one client in this process:
a call to a public entry point starts only when the previous one returned.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics without tracing.  The timed
phase repeats whole rounds for ``--seconds``, and every timed call enters
the figures.  A call's time covers the public call only; its output is
checked against the workload's law afterwards.  Every tenth of a second
of calls the host's speed is measured with a fixed reference loop
(``hostspeed.py``), and the calls' times are scaled to the nominal host
speed; the raw figures are printed and written beside them.

* ``setup_s``: median over fresh interpreters, spawned at even intervals
  through the timed phase, of the time from spawning one until its first
  warm-up call returns (imports of numpy and qpuflab, BLAS initialisation,
  the first call), scaled by the host speed the child itself measured;
* ``trials_per_s``: Monte Carlo trials completed over the summed time of
  all timed calls (a trial is one game, or one unit of a check's
  ``trials`` argument);
* ``call_ms_p50``/``call_ms_p90``: latency of all timed top-level calls;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the timed phase untraced for half the time, then the same
rounds again with spans installed (``tracer.py``), and reports the
per-layer metrics, per-dimension span costs and the ROADMAP baseline rows
(``rows.py``).  Both modes print every metric by name with its unit and end
with one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also writes a result file with the environment block, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: fresh interpreters timed per run for setup_s, spread over the timed phase
SETUP_PROBES = 9
#: fewest timed calls in a run, so p90 has ten samples above it
MIN_CALLS = 100
#: one BLAS thread (at most nproc): matrices here are at most 64 x 64, and a
#: second thread would only add contention with other tenants of the host
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: largest share of the top-level calls' traced time that library spans may
#: leave unattributed
MAX_UNATTRIBUTED = 0.01


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write a result file here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(args) -> None:
    """Child side of setup_s: import, warm up once, print the monotonic clock.

    Then it times the host reference loop itself, at once: the two vCPUs
    of a small guest change speed apart within seconds, so only the child,
    right after its set-up, sees the speed it ran at.
    """
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.workdir).warmup()
    done = time.monotonic()
    from hostspeed import reference

    print(repr(done), repr(reference()))


def setup_sample(args, workdir: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its warm-up call returns.

    Returns them with the host-speed factor the child measured.
    """
    from hostspeed import REFERENCE_S

    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
    done, ref = (float(word) for word in proc.stdout.split()[-2:])
    return done - t0, REFERENCE_S / ref


# ---------------------------------------------------------------------------
# environment block


def _git(*cmd: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the closed loop


def run_round(wl, r: int, records: list, hasher, speed, tracer=None) -> None:
    """One round of calls; outputs go into ``hasher``, timings into ``records``.

    Only the public call is timed (and, when tracing, spanned); the check of
    its output runs after.  ``speed`` (a ``hostspeed.HostSpeed``) scales the
    records by the host speed around them.
    """
    from workloads import Record

    for call in wl.round(r):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = call.run()
            else:
                result = tracer.run(f"bench.call.{call.kind}", call.run)
            dt = time.perf_counter() - t0
            out = call.check(result)
        except Exception as exc:  # a crash is a failed call, not a dead benchmark
            dt = time.perf_counter() - t0
            note = f"{type(exc).__name__}: {exc}"
            rec = Record(r, call.kind, call.cell, dt, failed=True, note=note)
        else:
            hasher.update(out.output)
            rec = Record(
                r, call.kind, call.cell, dt, trials=out.trials, wins=out.wins,
                bytes_written=out.bytes_written, alarms=out.alarms,
                failed=not out.ok, note=out.note,
            )
        records.append(rec)
        speed.add(rec)


def closed_loop(wl, seconds: float, first_round: int, hasher, probe):
    """Whole rounds until ``seconds`` have passed, with set-up probes spread evenly.

    Stops only once at least MIN_CALLS calls were timed.  Returns the
    records, the round numbers run, the set-up samples as (raw seconds,
    host scale) pairs and every reference time measured.
    """
    from hostspeed import HostSpeed

    records: list = []
    setup: list[tuple[float, float]] = []
    speed = HostSpeed()
    r = first_round
    t0 = time.perf_counter()
    while True:
        if len(setup) < SETUP_PROBES and (
            time.perf_counter() - t0 >= len(setup) * seconds / SETUP_PROBES
        ):
            speed.flush()
            setup.append(probe())
            speed.resume()
        run_round(wl, r, records, hasher, speed)
        r += 1
        enough = len(records) >= MIN_CALLS and len(setup) == SETUP_PROBES
        if enough and time.perf_counter() - t0 >= seconds:
            speed.flush()
            return records, range(first_round, r), setup, speed.refs


def end_to_end(timed, setup, normalise: bool) -> dict[str, tuple]:
    """The end-to-end metrics over every timed call, at nominal or raw host speed."""

    def seconds(raw: float, scale: float) -> float:
        return raw * scale if normalise else raw

    calls = [seconds(rec.seconds, rec.scale) for rec in timed]
    latencies = [t * 1e3 for t in calls]
    return {
        "setup_s": (statistics.median(seconds(*sample) for sample in setup), "s"),
        "trials_per_s": (sum(rec.trials for rec in timed) / sum(calls), "1/s"),
        "call_ms_p50": (statistics.median(latencies), "ms"),
        "call_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_metrics(title: str, metrics: dict[str, tuple]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value!r:>24} {unit}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpuflab" / "__init__.py").is_file():
        fail(f"no qpuflab package under {SRC}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload_cls, workdir: str) -> int:
    from hostspeed import REFERENCE_S, HostSpeed

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))

    wl = workload_cls(args.seed, workdir)
    warm: list = []
    warm_hash = hashlib.sha256()
    run_round(wl, 0, warm, warm_hash, HostSpeed())
    output_digest = warm_hash.hexdigest()

    timed_hash = hashlib.sha256()
    timed_seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
    timed, rounds, setup, refs = closed_loop(
        wl, timed_seconds, 1, timed_hash, lambda: setup_sample(args, workdir)
    )
    e2e = end_to_end(timed, setup, normalise=True)
    e2e_raw = end_to_end(timed, setup, normalise=False)
    everything = warm + timed
    problems: list[str] = []
    if args.trace:
        traced, tracer = run_traced(wl, rounds, timed_hash, problems)
        everything += traced

    # pooled laws count each round once: the traced phase repeats the inputs
    for cell, reason in wl.failing_cells(warm + timed).items():
        for rec in everything:
            if rec.cell == cell:
                rec.failed = True
                rec.note = rec.note or reason
    failed = [rec for rec in everything if rec.failed]
    for rec in failed[:5]:
        problems.append(f"round {rec.round} {rec.kind} {rec.cell}: {rec.note}")

    print(f"output_digest {output_digest} (round 0)")
    print(f"samples {len(timed)} timed calls in {len(rounds)} rounds; "
          f"setup probes {len(setup)}; failed {len(failed)} of {len(everything)} calls")
    print(f"host reference loop: median {statistics.median(refs) * 1e3:.2f} ms over "
          f"{len(refs)} passes (nominal {REFERENCE_S * 1e3:.2f} ms)")
    print_metrics("end-to-end (untraced, at nominal host speed):", e2e)
    print_metrics("end-to-end (untraced, raw):", e2e_raw)
    report: dict = {}
    per_layer: dict[str, tuple] = {}
    if args.trace:
        import rows
        from tracer import per_layer_metrics

        per_layer = per_layer_metrics(tracer, traced, timed, everything)
        report = {
            "spans": {
                name: {
                    "calls": tracer.calls[name],
                    "total_s": tracer.total[name],
                    "self_s": tracer.self_time[name],
                }
                for name in sorted(tracer.calls)
            },
            "by_dim": {
                f"{name} [{label}]": {"calls": n, "mean_s": total / n}
                for (name, label), (n, total) in sorted(tracer.by_dim.items())
            },
            "roadmap_rows": rows.measure(args.workload, args.seed, workdir),
        }
        print_metrics("per-layer (traced, per trial):", per_layer)
        print("span cost by dimension (traced, mean per call):")
        for key, cell in report["by_dim"].items():
            print(f"  {key:<52} {cell['calls']:>9} calls {cell['mean_s'] * 1e6:>12.2f} us")
        print("ROADMAP item 1 baseline rows (untraced, mean per call, raw and at "
              f"nominal host speed; agree within x{rows.AGREE[0]:.2f}..x{rows.AGREE[1]:.2f}):")
        for row in report["roadmap_rows"]:
            print(f"  {row['row']:<28} {row['measured_s'] * 1e3:>10.4f} ms raw "
                  f"{row['nominal_s'] * 1e3:>10.4f} ms nominal  "
                  f"ROADMAP {row['roadmap_s'] * 1e3:>8.4f} ms  "
                  f"x{row['ratio']:.2f} {row['verdict']}")
    for problem in problems:
        print(f"PROBLEM {problem}")

    result = {
        "correct": not problems,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {
            name: {"value": v, "unit": u}
            for name, (v, u) in (per_layer if args.trace else e2e).items()
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "environment": env,
                "output_digest": output_digest,
                "samples": len(timed),
                "rounds": len(rounds),
                "setup_samples_s": [raw for raw, _ in setup],
                "host_reference_s": refs,
                "end_to_end": {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()},
                "end_to_end_raw": {
                    n: {"value": v, "unit": u} for n, (v, u) in e2e_raw.items()
                },
                "per_layer": {n: {"value": v, "unit": u} for n, (v, u) in per_layer.items()},
                "problems": problems,
                "result": result,
                **report,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_traced(wl, rounds, untraced_hash, problems: list):
    """Replay the timed rounds with spans installed; outputs must not change."""
    from hostspeed import HostSpeed
    from tracer import Tracer, install, unattributed_share

    tracer = Tracer()
    traced: list = []
    traced_hash = hashlib.sha256()

    def phase():
        speed = HostSpeed()
        for r in rounds:
            run_round(wl, r, traced, traced_hash, speed, tracer)
        speed.flush()

    patches = install(tracer)
    try:
        tracer.run("bench.phase", phase)
    finally:
        patches.undo()
    if traced_hash.digest() != untraced_hash.digest():
        problems.append("traced outputs differ from untraced outputs")
    outside = unattributed_share(tracer)
    if outside > MAX_UNATTRIBUTED:
        problems.append(f"{outside:.4f} of the calls' time is outside every library span")
    return traced, tracer


if __name__ == "__main__":
    sys.exit(main())
