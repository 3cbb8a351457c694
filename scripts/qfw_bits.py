"""Compare quantized vs raw-float distributed Frank-Wolfe on a tiny
logistic finite sum: final suboptimality and exact communication bits at a
range of horizons.

Usage: python3 scripts/qfw_bits.py [--workers M] [--horizons 7 15 31 63]
"""

import argparse

import numpy as np

from fwlab.constraints import L1Ball
from fwlab.distsim import run_qfw, schedule_from_theorem
from fwlab.problems import FiniteSumProblem, LogisticL1
from fwlab.rng import RngStream
from fwlab.solvers import deterministic_fw


def make_problem(n=40, d=6, seed=2):
    rng = RngStream(seed)
    A = rng.normal(size=(n, d))
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1
    return FiniteSumProblem.from_logistic(LogisticL1(A, y))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--horizons", type=int, nargs="+",
                    default=[7, 15, 31, 63, 127])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    fs = make_problem()
    set_ = L1Ball(2.0, fs.dim)
    ref = deterministic_fw(fs.full_grad, set_, 20000, value_oracle=fs.value)
    fstar = fs.value(ref.output)
    print(f"reference optimum F* = {fstar:.10f}")
    print(f"{'T':>5} {'sub(quant)':>12} {'sub(raw)':>12} "
          f"{'bits(quant)':>12} {'bits(raw)':>10} {'ratio':>7}")
    for T in args.horizons:
        cq = schedule_from_theorem("finite_convex", fs.n, args.workers,
                                   fs.dim, T=T)
        cu = schedule_from_theorem("finite_convex", fs.n, args.workers,
                                   fs.dim, T=T, mode="unquantized")
        tq, lq = run_qfw(fs, set_, cq, T, RngStream(args.seed))
        tu, lu = run_qfw(fs, set_, cu, T, RngStream(args.seed))
        print(f"{T:>5} {fs.value(tq.output) - fstar:>12.6f} "
              f"{fs.value(tu.output) - fstar:>12.6f} "
              f"{lq.total:>12d} {lu.total:>10d} "
              f"{lq.total / lu.total:>7.3f}")


if __name__ == "__main__":
    main()
