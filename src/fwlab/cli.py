"""Command-line harness.

Subcommands: solve (stochastic/deterministic FW minimization), submax
(DR-submodular maximization), bcg, dbg, distsim, report, oracle.  Exit
codes: 0 ok, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from pathlib import Path

from .bench import (
    ConfigError,
    brute_force_opt,
    build_constraint,
    build_problem,
    load_config,
    run_experiment,
)
from . import constraints as C


def _add_common(sp):
    sp.add_argument("--config", required=True, help="INI config path")
    seeds = sp.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None)
    seeds.add_argument("--seeds", default=None, help="range A..B or list")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--override", action="append", default=[],
                    metavar="SECTION.KEY=VALUE")


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="fwlab",
                                 description="projection-free stochastic "
                                             "optimization harness")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("solve", "stochastic / deterministic Frank-Wolfe minimization"),
        ("submax", "DR-submodular maximization (continuous greedy mode)"),
        ("bcg", "black-box continuous greedy"),
        ("dbg", "discrete black-box greedy with rounding"),
        ("distsim", "quantized distributed Frank-Wolfe simulator"),
        ("oracle", "brute-force OPT over matroid bases"),
    ]:
        _add_common(sub.add_parser(name, help=help_))
    rp = sub.add_parser("report", help="re-aggregate finished runs")
    rp.add_argument("--out", required=True, help="directory with run files")
    return ap


def _load(args, forced=()):
    overrides = list(args.override) + list(forced)
    seeds = args.seeds if args.seeds is not None else args.seed
    if seeds is not None:
        overrides.append(f"experiment.seeds={seeds}")
    return load_config(args.config, overrides, out_dir=args.out)


def _run(cfg) -> int:
    report = run_experiment(cfg)
    print(json.dumps(report["aggregate"], indent=2))
    for f in report["failures"]:
        print(f"seed {f['seed']} failed: {f['error']}", file=sys.stderr)
    if report["n_ok"] == 0:
        return 3
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        print(f"not a directory: {out}", file=sys.stderr)
        return 2
    rows = []
    # per-seed sidecars only: their stem ends in the tag -s<seed>
    for sidecar in sorted(p for p in out.glob("*.json")
                          if re.search(r"-s-?\d+$", p.stem)):
        meta = json.loads(sidecar.read_text())
        trace_csv = sidecar.with_suffix(".csv")
        final = None
        if trace_csv.exists():
            with open(trace_csv) as fh:
                for final in csv.DictReader(fh):
                    pass
        rows.append({"run": sidecar.stem, "seed": meta.get("seed"),
                     "final": final})
    print(json.dumps({"n_runs": len(rows), "rows": rows}, indent=2))
    return 0 if rows else 3


def cmd_oracle(cfg) -> int:
    problem, setf = build_problem(cfg.problem)
    if setf is None:
        raise ConfigError("oracle needs a multilinear problem block")
    set_ = build_constraint(cfg.constraint, problem.dim)
    if not isinstance(set_, C.PartitionMatroidPolytope):
        raise ConfigError("oracle needs a matroid constraint block")
    opt, mask = brute_force_opt(setf, set_.matroid)
    print(json.dumps({"opt": opt,
                      "argmax": [int(i) for i in mask.nonzero()[0]]}))
    return 0


_FORCED = {
    "submax": ("solver.mode=dr_submodular_max",),
    "bcg": ("solver.algorithm=bcg",),
    "dbg": ("solver.algorithm=dbg",),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = _load(args, _FORCED.get(args.command, ()))
        if (cfg.distsim is None) == (args.command == "distsim"):
            raise ConfigError("a config with a [distsim] section runs under "
                              "the distsim command, and only such a config does")
        if args.command == "oracle":
            return cmd_oracle(cfg)
        return _run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
