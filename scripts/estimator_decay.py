"""Measure the momentum estimator's squared-error decay rate.

Runs the one-sample solver on a small normalized facility-location
multilinear instance over a box, with both variation options, and fits a
log-log slope of mean squared gradient-estimation error against t.

Usage: python3 scripts/estimator_decay.py [--seeds N] [--horizon T] [--out CSV]
"""

import argparse
import csv

import numpy as np

from fwlab.constraints import Box
from fwlab.problems import FacilityLocation, MultilinearProblem, make_facility_location
from fwlab.rng import RngStream
from fwlab.solvers import Schedule, one_sfw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--horizon", type=int, default=1024)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--out", default="estimator_decay.csv")
    args = ap.parse_args()

    raw = make_facility_location(args.dim, 5, RngStream(42, 0x1857))
    f = FacilityLocation(raw.W / raw.bound)
    p = MultilinearProblem(f)
    box = Box(np.full(args.dim, 0.3), np.full(args.dim, 0.7))
    pts = sorted(set(np.geomspace(32, args.horizon, 24).astype(int).tolist()))
    sched = Schedule.preset("nonconvex_min", args.horizon)

    rows = {t: {"t": t} for t in pts}
    for option in ("exact_hessian", "grad_diff"):
        errs = np.zeros(len(pts))
        for seed in range(args.seeds):
            tr = one_sfw(p, box, sched, option, RngStream(seed), log_points=pts)
            errs += np.array([r.est_error for r in tr.records])
        errs /= args.seeds
        A = np.vstack([np.log(pts), np.ones(len(pts))]).T
        slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
        print(f"{option}: slope {slope:.3f} (theory -2/3)")
        for t, e in zip(pts, errs):
            rows[t][option] = e

    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, ["t", "exact_hessian", "grad_diff"])
        w.writeheader()
        for t in pts:
            w.writerow(rows[t])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
