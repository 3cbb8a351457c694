"""A/B driver for perfbench: alternating runs of a parent tree and a change tree.

Usage:

    python3 scripts/ab.py PARENT CHANGE --workload NAME --seed N --pairs K
                          [--out FILE]

PARENT and CHANGE are two source trees (checkouts), each with its own
``perfbench/run.py``.  Before every run, each ``__pycache__`` under both
trees is deleted, so neither side runs on bytecode the other compiled.
Pair i runs ``perfbench/run.py --workload NAME --seed N --seconds S
--trace 0`` in both trees, the parent first when i is even and the change
first when it is odd.  S is ``run_seconds`` of ``BENCHMARK.json``, the
run length the benchmark itself uses.

For each end-to-end metric of ``BENCHMARK.json`` the script prints both
sides' medians and interquartile ranges, the median change in percent, the
pairs in which the change was better, the two-sided sign-test p over the
pairs that differ, and the verdict the benchmark's rule gives: *gain* when
the change is better in at least 9 of every 10 pairs and its median beats
the parent's by more than the parent's interquartile range, *regression*
when its median is worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median), and *unresolved* otherwise.
``--out`` also writes every run's value, the trace digests and the failed
seed runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600


def quartiles(xs):
    """(q1, median, q3), linear between order statistics."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def change_better(parent, change, better):
    """Per pair, whether the change's value beats the parent's."""
    if better == "higher":
        return [c > p for p, c in zip(parent, change)]
    return [c < p for p, c in zip(parent, change)]


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test over wins + losses untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def summarize(parent, change, better):
    """The comparison printed for one metric, from the per-pair values."""
    q_p, q_c = quartiles(parent), quartiles(change)
    wins = sum(change_better(parent, change, better))
    losses = sum(change_better(change, parent, better))
    return {
        "parent": dict(zip(("q1", "median", "q3"), q_p)),
        "change": dict(zip(("q1", "median", "q3"), q_c)),
        "median_change_pct": round(100.0 * (q_c[1] / q_p[1] - 1.0), 2),
        "change_better_pairs": wins,
        "parent_iqr": q_p[2] - q_p[0],
        "sign_test_p": sign_test_p(wins, losses),
        "runs": {"parent": list(parent), "change": list(change)},
    }


def verdict(summary, better, bound):
    """gain, regression or unresolved: the benchmark's reading of one
    metric's ``summarize`` output, with the metric's ``better`` and ``bound``."""
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    margin = change - parent if better == "higher" else parent - change
    pairs = len(summary["runs"]["parent"])
    if 10 * summary["change_better_pairs"] >= 9 * pairs and margin > summary["parent_iqr"]:
        return "gain"
    if -margin > bound * parent:
        return "regression"
    return "unresolved"


def clear_bytecode(tree: Path):
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trees):
    for t in trees:
        clear_bytecode(t)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
        timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1])
    res["trace_digest"] = next(line.split()[-1] for line in lines
                               if line.startswith("trace_digest:"))
    res["machine"] = json.loads(next(line.split(":", 1)[1] for line in lines
                                     if line.startswith("machine:")))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, args.seed,
                                       seconds, trees.values()))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    out = {"workload": args.workload, "workload_seed": args.seed,
           "pairs": args.pairs, "seconds": seconds,
           "machine": runs["change"][0]["machine"],
           "trace_digests": sorted({r["trace_digest"] for side in runs.values()
                                    for r in side}),
           "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
           "failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}}
    print(f"{args.workload}, workload seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s; failed seed runs {out['failed']}; "
          f"trace digests {len(out['trace_digests'])}")
    for m in bench["end_to_end"]:
        name = m["name"]
        s = out[name] = summarize(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]], m["better"])
        s["verdict"] = verdict(s, m["better"], m["bound"])
        print(f"  {name:12s} parent {s['parent']['median']:.6g} "
              f"(IQR {s['parent_iqr']:.3g}), change {s['change']['median']:.6g} "
              f"(IQR {s['change']['q3'] - s['change']['q1']:.3g}), "
              f"{s['median_change_pct']:+.2f}%, change better in "
              f"{s['change_better_pairs']} of {args.pairs}, sign-test p "
              f"{s['sign_test_p']:.3g}: {s['verdict']}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
