"""Compare the DR-submodular maximizers on one facility-location instance
with a brute-force optimum: one-sample momentum Frank-Wolfe (gradient
access), black-box continuous greedy (value access), and the discrete
black-box greedy with pipage rounding (set-value access).

Usage: python3 scripts/submax_compare.py [--seeds N]
"""

import argparse
import math

import numpy as np

from fwlab.bench import brute_force_opt
from fwlab.constraints import PartitionMatroid, PartitionMatroidPolytope
from fwlab.problems import MultilinearProblem, make_facility_location, multilinear_exact
from fwlab.rng import RngStream
from fwlab.solvers import Schedule, bcg, dbg, one_sfw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    d = 10
    f = make_facility_location(d, 6, RngStream(4, 0x1857))
    blocks = [list(range(5)), list(range(5, 10))]
    m = PartitionMatroid(blocks, [2, 2], d)
    poly = PartitionMatroidPolytope(blocks, [2, 2], d)
    opt, arg = brute_force_opt(f, m)
    guarantee = (1 - 1 / math.e) * opt
    print(f"OPT = {opt:.4f} at {sorted(arg.nonzero()[0].tolist())}; "
          f"(1-1/e) OPT = {guarantee:.4f}")

    p = MultilinearProblem(f)
    oracle = lambda Y: multilinear_exact(f, np.clip(Y, 0.0, 1.0))
    results = {"one_sfw": [], "bcg": [], "dbg": []}
    for seed in range(args.seeds):
        tr = one_sfw(p, poly, Schedule.preset("dr_submodular_max", 2000),
                     "exact_hessian", RngStream(seed), log_points=[2000])
        results["one_sfw"].append(multilinear_exact(f, tr.output))
        out = bcg(oracle, poly, RngStream(seed), 1000, 0.02, d)
        results["bcg"].append(multilinear_exact(f, out))
        S = dbg(f, m, 800, 0.05, 20, 1, RngStream(seed))
        results["dbg"].append(float(f(S)))

    for name, vals in results.items():
        arr = np.array(vals)
        print(f"{name:>8}: mean {arr.mean():.4f}  min {arr.min():.4f}  "
              f"frac of OPT {arr.mean() / opt:.3f}")


if __name__ == "__main__":
    main()
