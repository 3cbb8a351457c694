"""fwlab benchmark: one workload, closed loop, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed N determines every input (INI, logistic CSV, instance and
solver seeds); they are written to a fresh run directory under
``.perfbench_runs/`` that is removed afterwards.  Set-up time comes from
fresh-interpreter launches of ``setup_probe.py``, each paired with a launch
that only imports numpy (``calibrate.py``).  The workload itself runs in
one single-threaded process (``worker.py``, BLAS threads pinned to 1) that
executes seeds one after another through ``fwlab.cli.main`` for S seconds
and checks every output.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count seed runs, and
``failed_frac`` (printed, not in ``metrics``) is their ratio.  With
``--trace 0`` the metrics are the end-to-end ones, timed in calibrated
seconds (``calibrate.py``); with ``--trace 1`` they are the per-layer ones
from ``tracer.py``, and the span file of the run is kept under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_PAIRS = 12
RUN_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from calibrate import BASELINE_ARGS, BASELINE_S  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from worker import RESULT, SRC  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

END_TO_END = [
    ("iters_per_s", "iterations/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def machine(workload_seed):
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_ENV, "workload_seed": workload_seed}


def launch(args, run_dir, env, deadline):
    """Seconds from launching a fresh interpreter on ``args`` to the
    monotonic clock reading it prints when its work is done."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=run_dir, env=env, check=True,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    return float(proc.stdout.split()[-1]) - t0


def measure_setup(ini, run_dir, env, deadline):
    """Calibrated set-up seconds: the median over launches of set-up time
    over the time of the baseline launch beside it, times the baseline's
    reference time.  The two launches of a pair alternate in order."""
    probe = [str(HERE / "setup_probe.py"), ini.name]
    ratios = []
    for i in range(SETUP_PAIRS):
        if i % 2 == 0:
            setup = launch(probe, run_dir, env, deadline)
            baseline = launch(BASELINE_ARGS, run_dir, env, deadline)
        else:
            baseline = launch(BASELINE_ARGS, run_dir, env, deadline)
            setup = launch(probe, run_dir, env, deadline)
        ratios.append(setup / baseline)
    return statistics.median(ratios) * BASELINE_S


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fwlab" / "cli.py").is_file():
        print(f"no fwlab sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    w = WORKLOADS[args.workload]
    run_dir = RUNS / f"{w.name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = child_env()
    try:
        inputs = make_inputs(w, args.seed, run_dir)
        setup_s = measure_setup(inputs.ini, run_dir, env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
             "--ini", inputs.ini.name, "--seed0", str(inputs.solver_seed0),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=run_dir, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            print(f"workload process exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((run_dir / RESULT).read_text())
        if args.trace:
            shutil.copy(run_dir / "spans.csv", RUNS / f"{w.name}-spans.csv")
    except subprocess.SubprocessError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("machine:", json.dumps(machine(args.seed)))
    print(f"workload {w.name}: {res['attempted']} seed runs, {res['failed']} "
          f"failed, {res['seeds_timed']} timed")
    for f in res["failures"]:
        print("  failure:", f)
    print("trace_digest:", res["trace_digest"])
    if args.trace:
        values = res.get("layers") or {name: 0.0 for name, _, _ in LAYER_METRICS}
        table = [(name, unit) for name, unit, _ in LAYER_METRICS]
    else:
        values = {
            "iters_per_s": (res["iterations"] / res["seed_calibrated_s"]
                            if res["seeds_timed"] else 0.0),
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        table = END_TO_END
    metrics = {}
    for name, unit in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:36s} {values[name]!r} {unit}")
    print(f"  {'failed_frac':36s} {res['failed'] / res['attempted']!r} fraction")
    print(json.dumps({"correct": res["failed"] == 0 and res["seeds_timed"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
