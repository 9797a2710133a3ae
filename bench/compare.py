"""Compare two sets of benchmark result files, workload by workload.

Usage, from the repository root:

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out``, made with
the same ``--seconds`` on both sides and alternating which side runs first,
seed by seed.  Runs are paired by seed (else in seed order).  The verdicts
read the end-to-end metrics at nominal host speed (``hostspeed.py``).  For every end-to-end metric of
``BENCHMARK.json`` and every workload the verdict is, in this order:

* ``unresolved`` when either side's spread (interquartile range over median)
  exceeds the metric's bound, unless every change run beats every parent run;
* ``REGRESSION`` when the change's median is worse than the parent's by more
  than the bound;
* ``better`` when the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unchanged`` otherwise.

Per-layer metrics from traced runs are listed with both medians, without a
verdict.  Exits 1 when any metric regresses or any run reports failed calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> result file contents."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        env = data.get("environment", {})
        if "workload" not in env:
            continue  # not a result file
        runs[(env["workload"], env["trace"])][env["seed"]] = data
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: dict, change: dict) -> list[tuple[int, int]]:
    common = sorted(set(parent) & set(change))
    if common:
        return [(s, s) for s in common]
    return list(zip(sorted(parent), sorted(change)))


def verdict(p: list[float], c: list[float], paired, lower_better: bool, bound: float):
    sign = -1.0 if lower_better else 1.0  # sign * value grows with "better"
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    p_spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    c_spread = (c_q3 - c_q1) / abs(c_med) if c_med else float("inf")
    all_better = min(sign * v for v in c) > max(sign * v for v in p)
    wins = sum(1 for a, b in paired if sign * b > sign * a)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if max(p_spread, c_spread) > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "REGRESSION"
    elif wins >= WIN_SHARE * len(paired) and sign * (c_med - p_med) > p_q3 - p_q1:
        label = "better"
    else:
        label = "unchanged"
    return {
        "parent_median": p_med, "change_median": c_med,
        "parent_spread": p_spread, "change_spread": c_spread,
        "wins": wins, "pairs": len(paired), "verdict": label,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument(
        "--benchmark", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json",
    )
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    status = 0
    for runs in (parent, change):
        for (workload, trace), by_seed in sorted(runs.items()):
            for seed, data in sorted(by_seed.items()):
                if data["result"]["failed"] or not data["result"]["correct"]:
                    print(f"FAILED outputs: {workload} trace={trace} seed={seed}")
                    status = 1

    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if not p_runs or not c_runs:
            print(f"{workload}: no untraced runs on {'both sides' if not (p_runs or c_runs) else 'one side'}")
            continue
        paired_seeds = pairs(p_runs, c_runs)
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(paired_seeds)} pairs")
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(data, name=name):
                return data["end_to_end"][name]["value"]

            p = [value(d) for d in p_runs.values()]
            c = [value(d) for d in c_runs.values()]
            paired = [(value(p_runs[a]), value(c_runs[b])) for a, b in paired_seeds]
            v = verdict(p, c, paired, metric["better"] == "lower", metric["bound"])
            if v["verdict"] == "REGRESSION":
                status = 1
            print(f"  {name:<14} {v['parent_median']:>14.6g} -> {v['change_median']:<14.6g}"
                  f" {metric['unit']:<4} spread {v['parent_spread']:.3f}/{v['change_spread']:.3f}"
                  f" bound {metric['bound']}  wins {v['wins']}/{v['pairs']}  {v['verdict']}")

        p_traced, c_traced = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if p_traced and c_traced:
            print(f"  per-layer medians ({len(p_traced)} vs {len(c_traced)} traced runs):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                p = statistics.median(d["per_layer"][name]["value"] for d in p_traced.values())
                c = statistics.median(d["per_layer"][name]["value"] for d in c_traced.values())
                if p or c:
                    ratio = f"x{c / p:.3f}" if p else "new"
                    print(f"    {name:<38} {p:>14.6g} -> {c:<14.6g} {ratio}")
    return status


if __name__ == "__main__":
    sys.exit(main())
