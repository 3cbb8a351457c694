"""Each of the paper's claims beside what fwlab measures, one table row per
claim: the family, the instance, the method, the measured numbers, the
claim's margin and whether the measurement meets it.  Seeds are fixed, so
the output is the same bytes on every run; nothing is written to disk.

Usage: python3 scripts/claims.py [--small]

``--small`` runs the same rows with fewer seeds and shorter horizons.
"""

import argparse
import math

import numpy as np

from fwlab.bench import brute_force_opt
from fwlab.constraints import L1Ball, PartitionMatroidPolytope, Simplex
from fwlab.distsim import run_qfw, schedule_from_theorem
from fwlab.problems import (
    NQP,
    FiniteSumProblem,
    LogisticL1,
    MultilinearProblem,
    Quadratic,
    make_facility_location,
    multilinear_exact,
)
from fwlab.rng import RngStream
from fwlab.solvers import Schedule, bcg, dbg, deterministic_fw, oblivious_sfw, one_sfw, scg_baseline

FULL = dict(seeds=20, T=4096, qfw_T=(7, 15, 31, 63, 127), qfw_d=(20, 50), qfw_at=31,
            ref_T=20000, bb_seeds=10, bb_T=(2000, 1000, 800))
SMALL = dict(seeds=3, T=256, qfw_T=(7, 15), qfw_d=(20,), qfw_at=15,
             ref_T=2000, bb_seeds=2, bb_T=(200, 100, 80))


def row(family, instance, method, measured, margin, met):
    print(f"| {family} | {instance} | {method} | {measured} | {margin} | "
          f"{'met' if met else 'missed'} |")


def one_sample_rows(size):
    """PAPER.md: momentum-only d_t is biased, so it needs a conservative
    rho_t; the one-sample variation term removes the bias.  Same seeds,
    same instance: the variance-reduced method against scg on its preset
    rho_t and on its theorem's rho_t = min(1, 4/(t + 8)^(2/3))."""
    T, seeds = size["T"], size["seeds"]
    pts = sorted(set(np.geomspace(32, T, 20).astype(int).tolist()))
    A = np.vstack([np.log(pts), np.ones(len(pts))]).T
    instances = [
        ("quadratic d=6, l1 ball r=2", Quadratic(np.full(6, 0.2), noise_sigma=1.0),
         L1Ball(2.0, 6), "convex_min", -1.0, "-1"),
        ("NQP d=20, simplex", NQP(20, RngStream(9, 0x1857), noise_sigma=1.0),
         Simplex(1.0, 20), "nonconvex_min", -2 / 3, "-2/3"),
    ]
    for name, p, set_, mode, rate, rate_text in instances:
        preset = Schedule.preset(mode, T)
        thm = Schedule(T, mode, lambda t: min(1.0, 4 / (t + 8) ** (2 / 3)), preset.eta_fn)
        runs = [("oblivious_sfw", lambda s: oblivious_sfw(p, set_, preset, RngStream(s), pts)),
                ("scg preset", lambda s: scg_baseline(p, set_, preset, RngStream(s), pts)),
                ("scg thm", lambda s: scg_baseline(p, set_, thm, RngStream(s), pts))]
        instance = f"{name}, {mode}, T={T}, {seeds} seeds"
        for method, solve in runs:
            traces = [solve(s) for s in range(seeds)]
            errs = np.mean([[r.est_error for r in tr.records] for tr in traces], axis=0)
            slope = np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0]
            obj = np.mean([tr.records[-1].objective for tr in traces])
            measured = f"slope {slope:.2f}, err {errs[-1]:.3g}, obj {obj:.4g}"
            if method == "oblivious_sfw":
                base = errs[-1]
                row("one-sample", instance, method, measured,
                    f"err slope <= {rate_text}", slope <= rate)
            else:
                gain = errs[-1] / base
                row("one-sample", instance, method, measured,
                    f"err / oblivious_sfw's = {gain:.3g} > 1", gain > 1)


def logistic_fs(d, n=40, seed=2):
    rng = RngStream(seed)
    A = rng.normal(size=(n, d))
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1
    return FiniteSumProblem.from_logistic(LogisticL1(A, y))


def quantized_rows(size):
    """Quantized FW (Zhang, Chen, Mokhtari, Hassani, Karbasi, AISTATS 2020):
    the theorem's levels save communication at a small loss.  Margins are
    test_09's: bits <= raw / 4, suboptimality <= 2x raw's."""
    M = 4
    cases = [(6, T) for T in size["qfw_T"]] + [(d, size["qfw_at"]) for d in size["qfw_d"]]
    for d in sorted({d for d, _ in cases}):
        fs = logistic_fs(d)
        set_ = L1Ball(2.0, d)
        ref = deterministic_fw(fs.full_grad, set_, size["ref_T"], value_oracle=fs.value)
        fstar = fs.value(ref.output)
        for T in [T for dd, T in cases if dd == d]:
            subs, bits = [], []
            for mode in ("quantized", "unquantized"):
                cfg = schedule_from_theorem("finite_convex", fs.n, M, d, T=T, mode=mode)
                tr, ledger = run_qfw(fs, set_, cfg, T, RngStream(0))
                subs.append(fs.value(tr.output) - fstar)
                bits.append(ledger.total)
            bit_ratio, sub_ratio = bits[0] / bits[1], subs[0] / subs[1]
            instance = f"logistic n=40 d={d}, l1 ball r=2, M={M}, T={T}, seed 0"
            row("quantized", instance, "qfw / raw",
                f"bits {bits[0]} / {bits[1]} = {bit_ratio:.3f}", "bits <= 0.25", bit_ratio <= 0.25)
            row("quantized", instance, "qfw / raw",
                f"suboptimality {subs[0]:.3g} / {subs[1]:.3g} = {sub_ratio:.3f}",
                "suboptimality <= 2", sub_ratio <= 2)


def black_box_rows(size):
    """Black-box maximization (Chen, Zhang, Hassani, Karbasi, AISTATS 2020):
    value or set-value queries reach (1 - 1/e) OPT on a monotone
    submodular function, as the gradient-based one-sample method does."""
    d, seeds = 10, size["bb_seeds"]
    t_sfw, t_bcg, t_dbg = size["bb_T"]
    f = make_facility_location(d, 6, RngStream(4, 0x1857))
    blocks = [list(range(5)), list(range(5, 10))]
    poly = PartitionMatroidPolytope(blocks, [2, 2], d)
    opt, _ = brute_force_opt(f, poly.matroid)
    p = MultilinearProblem(f)
    oracle = lambda Y: multilinear_exact(f, np.clip(Y, 0.0, 1.0))
    runs = [
        (f"one_sfw T={t_sfw}", lambda s: multilinear_exact(f, one_sfw(
            p, poly, Schedule.preset("dr_submodular_max", t_sfw), "exact_hessian",
            RngStream(s), log_points=[t_sfw]).output)),
        (f"bcg T={t_bcg}", lambda s: multilinear_exact(
            f, bcg(oracle, poly, RngStream(s), t_bcg, 0.02, d))),
        (f"dbg T={t_dbg}", lambda s: float(f(dbg(f, poly, t_dbg, 0.05, 20, 1, RngStream(s))))),
    ]
    bound = 1 - 1 / math.e
    for method, value in runs:
        ratio = np.array([value(s) for s in range(seeds)]) / opt
        row("black-box", f"facility d=10, matroid (2, 2), {seeds} seeds", method,
            f"F/OPT mean {ratio.mean():.3f}, min {ratio.min():.3f}",
            f"min F/OPT >= 1 - 1/e = {bound:.3f}", ratio.min() >= bound)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--small", action="store_true",
                    help="fewer seeds and shorter horizons, same rows")
    size = SMALL if ap.parse_args().small else FULL
    print("| family | instance | method | measured | margin | verdict |")
    print("|---|---|---|---|---|---|")
    one_sample_rows(size)
    quantized_rows(size)
    black_box_rows(size)


if __name__ == "__main__":
    main()
