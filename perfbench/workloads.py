"""The benchmark's workloads and the inputs generated for them.

Every input the program sees (INI config, logistic CSV, instance seed,
solver seeds) is derived here from the workload seed with numpy's own
generator, so a change to ``fwlab.rng`` cannot change what is benchmarked.
The INI values mirror the shipped configs under ``scripts/configs`` where a
workload is based on one; only the seeds differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOGISTIC_ROWS = 4000
LOGISTIC_DIM = 6
# Relative to the run directory, which is the program's working directory,
# so sidecars (which record the path) do not depend on where the checkout is.
CSV_NAME = "logistic.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # fwlab CLI subcommand
    iterations: int       # solver iterations (or distsim rounds) per seed
    check: str            # how each seed's final objective is checked
    ini: str              # template; {instance_seed} and {csv} are filled in
    tolerance: float = 0.0  # allowed excess over the reference minimum
    needs_csv: bool = False


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "sfw-quadratic", "solve", 2000, "quadratic_min",
            """\
[experiment]
name = sfw-quadratic
[problem]
kind = quadratic
dim = 6
noise = 1.0
[constraint]
kind = l1ball
radius = 2.0
[solver]
algorithm = oblivious_sfw
mode = convex_min
t = 2000
""", tolerance=0.02),
        Workload(
            "sfw-facility", "submax", 2000, "opt_ratio",
            """\
[experiment]
name = sfw-facility
[problem]
kind = multilinear_facility
dim = 10
n_clients = 6
instance_seed = {instance_seed}
[constraint]
kind = matroid
blocks = 0 1 2 3 4 | 5 6 7 8 9
budgets = 2 2
[solver]
algorithm = one_sfw
mode = dr_submodular_max
option = exact_hessian
t = 2000
"""),
        Workload(
            "bcg-coverage-d12", "bcg", 100, "opt_ratio",
            """\
[experiment]
name = bcg-coverage-d12
[problem]
kind = multilinear_coverage
dim = 12
n_topics = 8
instance_seed = {instance_seed}
[constraint]
kind = matroid
blocks = 0 1 2 3 4 5 | 6 7 8 9 10 11
budgets = 2 2
[solver]
algorithm = bcg
t = 100
delta = 0.02
batch = 12
"""),
        Workload(
            "qfw-logistic-n4000", "distsim", 63, "logistic_min",
            """\
[experiment]
name = qfw-logistic-n4000
[problem]
kind = logistic_csv
path = {csv}
[constraint]
kind = l1ball
radius = 2.0
[distsim]
setting = finite_convex
m = 4
t = 63
mode = quantized
""", tolerance=0.04, needs_csv=True),
    ]
}


@dataclass(frozen=True)
class Inputs:
    ini: Path
    solver_seed0: int     # solver seeds are solver_seed0, solver_seed0 + 1, ...


def write_logistic_csv(path: Path, rng: np.random.Generator,
                       n: int = LOGISTIC_ROWS, d: int = LOGISTIC_DIM):
    """Label column of +/-1, then d standard-normal features, 8 decimals."""
    A = rng.normal(size=(n, d))
    y = np.where(rng.normal(size=n) < 0, -1, 1)
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(f"{y[i]}," + ",".join(f"{v:.8f}" for v in A[i]) + "\n")


def make_inputs(workload: Workload, workload_seed: int, out_dir: Path) -> Inputs:
    """Write the workload's INI (and CSV) into ``out_dir``, the run directory."""
    rng = np.random.default_rng([workload_seed, 0x5EED])
    instance_seed = int(rng.integers(2**31))
    solver_seed0 = int(rng.integers(2**31))
    if workload.needs_csv:
        write_logistic_csv(out_dir / CSV_NAME, rng)
    ini = out_dir / f"{workload.name}.ini"
    ini.write_text(workload.ini.format(instance_seed=instance_seed, csv=CSV_NAME))
    return Inputs(ini, solver_seed0)
