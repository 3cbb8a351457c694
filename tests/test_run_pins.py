"""Byte pins of short CLI runs.

Each entry of ``RUNS`` is one CLI run: a command, a config and its
overrides, one seed and at most 30 iterations (rounds).  The test hashes
the files the run writes and compares the hashes with the table in
``run_pins.json``: the trace CSV, the seed's JSON sidecar, and the report
JSON with its per-seed ``wall_s`` removed.  A change that moves any byte of
a pinned run fails here.  The digests hold for one platform (Python 3.11,
numpy 2.4), as the float-hex pins in ``test_solvers.py`` do.

To add a path, add an entry to ``RUNS`` and regenerate the table; a change
that moves a digest on purpose says which and why.  Regenerate with

    PYTHONPATH=src python tests/test_run_pins.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from fwlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("run_pins.json")
SEED = 3

COVERAGE_BOX = """\
[problem]
kind = multilinear_coverage
dim = 6
n_topics = 5
instance_seed = 2
[constraint]
kind = box
lower = 0.3
upper = 0.7
[solver]
algorithm = one_sfw
option = grad_diff
t = 30
"""

FACILITY_MATROID = """\
[problem]
kind = multilinear_facility
dim = 6
n_clients = 4
instance_seed = 5
[constraint]
kind = matroid
blocks = 0 1 2 | 3 4 5
budgets = 1 2
[solver]
algorithm = one_sfw
mode = dr_submodular_max
option = exact_hessian
t = 30
"""

QUADRATIC = """\
[problem]
kind = quadratic
dim = 5
noise = 1.0
[constraint]
kind = l1ball
radius = 0.8
[solver]
algorithm = oblivious_sfw
mode = convex_min
t = 30
"""

NQP_BOX = """\
[problem]
kind = nqp
dim = 5
noise = 0.5
instance_seed = 7
[constraint]
kind = box
[solver]
algorithm = scg
mode = dr_submodular_max
t = 30
"""

# The path is relative to the repository root, where the runs execute, so
# the sidecars do not name a temporary directory.
LOGISTIC = """\
[problem]
kind = logistic_csv
path = scripts/configs/logistic_tiny.csv
[constraint]
kind = l1ball
radius = 2.0
[distsim]
setting = finite_convex
m = 1
t = 30
mode = quantized
"""

#: name -> (command, config text, overrides)
RUNS = {
    "one_sfw-grad_diff-box-convex": ("solve", COVERAGE_BOX, ["solver.mode=convex_min"]),
    "one_sfw-grad_diff-box-nonconvex": (
        "solve", COVERAGE_BOX, ["solver.mode=nonconvex_min"]),
    "one_sfw-grad_diff-box-dr": (
        "submax", COVERAGE_BOX, ["constraint.lower=0", "constraint.upper=0.6"]),
    "one_sfw-exact_hessian-matroid-dr": ("submax", FACILITY_MATROID, []),
    "oblivious_sfw-quadratic-l1ball": ("solve", QUADRATIC, []),
    "scg-nqp-box-dr": ("submax", NQP_BOX, []),
    "deterministic_fw-quadratic-simplex": (
        "solve", QUADRATIC, ["solver.algorithm=deterministic_fw",
                             "constraint.kind=simplex", "constraint.scale=1.5"]),
    "bcg-coverage-matroid": (
        "bcg", FACILITY_MATROID.replace("facility", "coverage").replace(
            "n_clients", "n_topics"), ["solver.delta=0.05", "solver.batch=4"]),
    "dbg-facility-matroid": (
        "dbg", FACILITY_MATROID, ["solver.delta=0.05", "solver.batch=2",
                                  "solver.l=5"]),
    **{f"distsim-{mode}-{setting}-m1": (
        "distsim", LOGISTIC, [f"distsim.mode={mode}", f"distsim.setting={setting}"])
       for mode in ("quantized", "unquantized", "fl")
       for setting in ("finite_convex", "finite_nonconvex")},
    **{f"distsim-{mode}-finite_convex-m2": (
        "distsim", LOGISTIC, [f"distsim.mode={mode}", "distsim.m=2"])
       for mode in ("quantized", "unquantized", "fl")},
}


def _digests(out: Path) -> dict:
    """sha256 of the trace, the sidecar and the report without wall_s."""
    (trace,) = out.glob(f"*-s{SEED}.csv")
    (sidecar,) = out.glob(f"*-s{SEED}.json")
    (report,) = out.glob("*-report.json")
    rep = json.loads(report.read_text())
    for row in rep["rows"]:
        del row["wall_s"]
    blobs = {"trace": trace.read_bytes(), "sidecar": sidecar.read_bytes(),
             "report": json.dumps(rep, sort_keys=True).encode()}
    return {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}


def run_pinned(name: str, tmp: Path) -> dict:
    """Run ``RUNS[name]`` from the repository root, writing into ``tmp``."""
    command, text, overrides = RUNS[name]
    ini = tmp / f"{name}.ini"
    ini.write_text(f"[experiment]\nname = {name}\n" + text)
    argv = [command, "--config", str(ini), "--seed", str(SEED), "--out",
            str(tmp / "out")]
    for ov in overrides:
        argv += ["--override", ov]
    assert main(argv) == 0, name
    return _digests(tmp / "out")


def test_every_run_has_a_pin():
    assert sorted(json.loads(TABLE.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_run_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_pinned(name, tmp_path) == json.loads(TABLE.read_text())[name]


def write_table():
    """Run every entry of ``RUNS`` and write their digests to the table."""
    import contextlib
    import io
    import os
    import tempfile

    os.chdir(ROOT)
    table = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            table[name] = run_pinned(name, Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} pins to {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_run_pins.py --write")
    write_table()
