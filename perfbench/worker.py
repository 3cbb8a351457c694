"""The workload process: runs one workload's seeds one after another through
``fwlab.cli.main``, checks every output, and writes a JSON result.

Started by ``run.py`` in the run directory, with BLAS threads pinned to 1;
it imports ``fwlab`` from the checkout's ``src``.  The first seed is a
warm-up (checked, not timed); then seeds are timed until ``--seconds`` have
passed; then the first seed is run again and its files byte-compared.
Seeds are timed in calibrated seconds (``calibrate.py``), and the result
goes to ``result.json`` in the run directory.  With ``--trace 1`` the
first timed seeds also run traced, right after their untraced run; the two
outputs must match byte for byte, and the result holds per-layer metrics
from the traced runs of the seeds that passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import CalibratedClock
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
RESULT = "result.json"
MIN_TIMED_SEEDS = 2
MAX_TRACED_SEEDS = 5  # bounds the spans held in memory; later seeds run untraced
DIGEST_SEEDS = 2      # trace digest over the first seeds, which always run


def _import_fwlab():
    sys.path.insert(0, str(SRC))
    import fwlab

    if SRC not in Path(fwlab.__file__).resolve().parents:
        raise SystemExit(f"fwlab imported from {fwlab.__file__}, not {SRC}")


def l1_projection(v, radius):
    """Euclidean projection onto the l1 ball (sort-based)."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, u.size + 1) > css - radius)[0][-1]
    theta = (css[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def logistic_lower_bound(A, y, radius, iters=1000):
    """Certified lower bound on min mean logistic loss over the l1 ball:
    the best f(x_k) - gap(x_k) along a classical Frank-Wolfe run."""
    x = np.zeros(A.shape[1])
    best = -np.inf
    for k in range(iters):
        m = -y * (A @ x)
        g = -(A.T @ (y / (1.0 + np.exp(-m)))) / y.size
        i = int(np.argmax(np.abs(g)))
        v = np.zeros_like(x)
        v[i] = -radius * np.sign(g[i])
        best = max(best, float(np.mean(np.logaddexp(0.0, m)) - (x - v) @ g))
        x = x + 2.0 / (k + 2.0) * (v - x)
    return best


def reference(workload, ini):
    """The bound each seed's final objective is checked against, computed
    before any seed is timed."""
    from fwlab import cli

    cfg = cli.load_config(ini)
    problem, setf = cli.build_problem(cfg.problem)
    set_ = cli.build_constraint(cfg.constraint, problem.dim)
    if workload.check == "opt_ratio":
        opt, _ = cli.brute_force_opt(setf, set_.matroid)
        return (1.0 - 1.0 / math.e) * opt
    if workload.check == "quadratic_min":
        t = problem.target
        return 0.5 * float(((t - l1_projection(t, set_.radius)) ** 2).sum())
    if workload.check == "logistic_min":
        return logistic_lower_bound(problem.A, problem.y, set_.radius)
    raise ValueError(f"unknown check {workload.check!r}")


class SeedRunner:
    def __init__(self, workload, ini, reference_value):
        self.workload = workload
        self.ini = ini
        self.reference = reference_value
        self.clock = CalibratedClock()

    def run(self, seed, out, call):
        """Run one seed through ``call`` (the CLI's ``main``).

        Returns (calibrated seconds, error or None).
        """
        argv = [self.workload.command, "--config", str(self.ini),
                "--seed", str(seed), "--out", str(out)]
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = call(argv)
        calibrated = self.clock.calibrated(time.perf_counter() - t0)
        if code != 0:
            return calibrated, f"seed {seed}: exit {code}: {err.getvalue().strip()}"
        return calibrated, self.check(seed, out)

    def check(self, seed, out):
        try:
            trace, sidecar = seed_files(out, seed)
        except FileNotFoundError as e:
            return f"seed {seed}: {e}"
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        w = self.workload
        if w.command == "bcg":
            # bcg writes no per-iteration rows, only the final objective, so
            # its iterations are counted as configured.
            obj = float(json.loads(sidecar.read_text())["meta"]["objective"])
        else:
            # The last row is the last iteration (round), so a run that
            # stopped early cannot count its configured iterations.
            last_t = rows[-1]["t"] if rows else None
            if last_t is None or int(last_t) != w.iterations:
                return f"seed {seed}: trace ends at t={last_t}, not {w.iterations}"
            obj = float(rows[-1]["objective"])
        if w.check == "opt_ratio":
            if not obj >= self.reference:
                return f"seed {seed}: objective {obj!r} below (1-1/e)*OPT {self.reference!r}"
        elif not obj - self.reference <= w.tolerance:
            return (f"seed {seed}: objective {obj!r} exceeds reference "
                    f"{self.reference!r} by more than {w.tolerance}")
        return None


def seed_files(out, seed):
    found = []
    for suffix in (".csv", ".json"):
        hits = sorted(Path(out).glob(f"*-s{seed}{suffix}"))
        if len(hits) != 1:
            raise FileNotFoundError(f"expected one *-s{seed}{suffix} in {out}, found {len(hits)}")
        found.append(hits[0])
    return found


def same_files(out_a, out_b, seed):
    a = [p.read_bytes() for p in seed_files(out_a, seed)]
    b = [p.read_bytes() for p in seed_files(out_b, seed)]
    return a == b


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ini", required=True, type=Path)
    ap.add_argument("--seed0", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_fwlab()
    from fwlab import cli

    w = WORKLOADS[args.workload]
    runner = SeedRunner(w, args.ini, reference(w, args.ini))
    out, again = Path("out"), Path("out-repeat")
    seeds = itertools.count(args.seed0)
    # timed: (calibrated s, traced calibrated s) of each passing seed
    failures, timed = [], []
    attempted = 0

    def record(error):
        nonlocal attempted
        attempted += 1
        if error:
            failures.append(error)
        return error is None

    first = next(seeds)
    record(runner.run(first, out, cli.main)[1])

    tracer = None
    if args.trace:
        tracer = Tracer()
        traced_main = tracer.span("seed", cli.main)
    start = time.perf_counter()
    for n in itertools.count():
        if n >= MIN_TIMED_SEEDS and time.perf_counter() - start >= args.seconds:
            break
        seed = next(seeds)
        calibrated, error = runner.run(seed, out, cli.main)
        ok = record(error)
        traced = None
        if tracer is not None and len(timed) < MAX_TRACED_SEEDS:
            mark = len(tracer.spans)
            tracer.install()
            tracer.seed = seed
            try:
                traced, error = runner.run(seed, again, traced_main)
            finally:
                tracer.uninstall()
            if error is None and not same_files(out, again, seed):
                error = f"seed {seed}: traced run wrote different files"
            ok = record(error) and ok
            if not ok:
                del tracer.spans[mark:]  # layer metrics cover passing seeds only
        if ok:
            timed.append((calibrated, traced))
    pairs = [t for t in timed if t[1] is not None]

    # Repeat the warm-up seed: its files must match byte for byte.
    error = runner.run(first, again, cli.main)[1]
    if error is None and not same_files(out, again, first):
        error = f"seed {first}: repeated run wrote different files"
    record(error)

    digest = hashlib.sha256()
    for seed in range(args.seed0, args.seed0 + DIGEST_SEEDS):
        for path in sorted(out.glob(f"*-s{seed}.*")):
            digest.update(path.read_bytes())

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "seeds_timed": len(timed),
        "iterations": w.iterations * len(timed),
        "seed_calibrated_s": sum(t[0] for t in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_digest": digest.hexdigest(),
    }
    if tracer is not None:
        tracer.write("spans.csv")
        if pairs:
            result["layers"] = layer_metrics(
                tracer.spans, len(pairs), sum(t[1] for t in pairs),
                sum(t[0] for t in pairs))
    Path(RESULT).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
