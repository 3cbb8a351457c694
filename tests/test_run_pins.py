"""Byte pins of short CLI runs.

Each entry of ``RUNS`` is one CLI run: a command, a config and its
overrides, one seed and at most 100 iterations (rounds).  The test hashes
the files the run writes and compares the hashes with the table in
``run_pins.json``: the trace CSV, the seed's JSON sidecar, and the report
JSON with its per-seed ``wall_s`` removed.  A change that moves any byte of
a pinned run fails here.  Each entry also runs on the seeds ``SEED - 1``
and ``SEED`` in one run, whose second seed must keep its trace and sidecar
pins: a run builds its problem and constraint once for all its seeds.

The digests were made on one platform (Python 3.11, numpy 2.4, and the
OpenBLAS kernels that an AVX-512 host picks), as the float-hex pins in
``test_solvers.py`` were.  Under ``OPENBLAS_CORETYPE=Haswell`` (the AVX2
kernels) and ``=Prescott`` (SSE3) these entries keep their bytes: the
seven distsim entries that ``test_logistic_runs_hold_across_blas_kernels``
guards, ``one_sfw-facility-matroid-convex``,
``deterministic_fw-facility-matroid``, ``scg-quadratic-l1ball-dr`` and the
three ``dbg`` entries; the two ``bcg`` entries hold under Haswell only.
Every other entry moves.  ROADMAP item 12 is about that.

To add a path, add an entry to ``RUNS`` and regenerate its pin; a change
that moves a digest on purpose says which and why.  Regenerate the named
entries (every entry when none is named) with

    PYTHONPATH=src python tests/test_run_pins.py --write [NAME ...]

which prints the names whose digests changed;

    PYTHONPATH=src python tests/test_run_pins.py --digests [NAME ...]

prints their digests as one JSON object and writes no pin, which is how
``test_logistic_runs_hold_across_blas_kernels`` runs them under other
kernels.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fwlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("run_pins.json")
SEED = 3

GRAD_DIFF_BOX = """\
[constraint]
kind = box
lower = 0.3
upper = 0.7
[solver]
algorithm = one_sfw
option = grad_diff
t = 30
"""


def _grad_diff_box(kind: str, extra: str = "") -> str:
    """One_sfw grad_diff on the box [0.3, 0.7]^6, for ``multilinear_<kind>``;
    ``extra`` holds the kind's own problem keys."""
    return (f"[problem]\nkind = multilinear_{kind}\ndim = 6\n{extra}"
            "instance_seed = 2\n" + GRAD_DIFF_BOX)


COVERAGE_BOX = _grad_diff_box("coverage", "n_topics = 5\n")

MATROID_DR = """\
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


def _multilinear(kind: str, extra: str = "") -> str:
    """One_sfw exact_hessian, DR max on a matroid, for ``multilinear_<kind>``
    at d = 6; ``extra`` holds the kind's own problem keys."""
    return (f"[problem]\nkind = multilinear_{kind}\ndim = 6\n{extra}"
            "instance_seed = 5\n" + MATROID_DR)


FACILITY_MATROID = _multilinear("facility", "n_clients = 4\n")

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

LOGISTIC_SOLVE = """\
[problem]
kind = logistic_csv
path = scripts/configs/logistic_tiny.csv
[constraint]
kind = l1ball
radius = 2.0
[solver]
mode = convex_min
t = 30
"""

#: name -> (command, config text, overrides)
RUNS = {
    "one_sfw-grad_diff-box-convex": ("solve", COVERAGE_BOX, ["solver.mode=convex_min"]),
    "one_sfw-grad_diff-box-nonconvex": (
        "solve", COVERAGE_BOX, ["solver.mode=nonconvex_min"]),
    **{f"one_sfw-grad_diff-{kind}-box-nonconvex": (
        "solve", _grad_diff_box(kind, extra), ["solver.mode=nonconvex_min"])
       for kind, extra in (("facility", "n_clients = 4\n"), ("modular", ""),
                           ("concave_modular", "n_users = 3\n"), ("logdet", ""))},
    "one_sfw-grad_diff-box-dr": (
        "submax", COVERAGE_BOX, ["constraint.lower=0", "constraint.upper=0.6"]),
    "one_sfw-exact_hessian-matroid-dr": ("submax", FACILITY_MATROID, []),
    "one_sfw-concave_modular-matroid-dr": (
        "submax", _multilinear("concave_modular", "n_users = 3\n"), []),
    "one_sfw-logdet-matroid-dr": ("submax", _multilinear("logdet"), []),
    "one_sfw-modular-matroid-dr": ("submax", _multilinear("modular"), []),
    # d = 5: the odd coordinate of the multilinear contraction's high half
    "one_sfw-facility-matroid-d5-dr": (
        "submax", FACILITY_MATROID, ["problem.dim=5", "constraint.blocks=0 1 2 | 3 4"]),
    "one_sfw-facility-matroid-convex": (
        "solve", FACILITY_MATROID, ["solver.mode=convex_min"]),
    "deterministic_fw-facility-matroid": (
        "solve", FACILITY_MATROID, ["solver.algorithm=deterministic_fw",
                                    "solver.mode=convex_min"]),
    "oblivious_sfw-quadratic-l1ball": ("solve", QUADRATIC, []),
    # t > 64: the geometric log points
    "oblivious_sfw-quadratic-l1ball-t100": ("solve", QUADRATIC, ["solver.t=100"]),
    "one_sfw-quadratic-l1ball": ("solve", QUADRATIC, ["solver.algorithm=one_sfw"]),
    "one_sfw-quadratic-l1ball-eta": (
        "solve", QUADRATIC, ["solver.algorithm=one_sfw", "solver.eta_c=0.5",
                             "solver.eta_a=0.75"]),
    "oblivious_sfw-logistic-l1ball": (
        "solve", LOGISTIC_SOLVE, ["solver.algorithm=oblivious_sfw"]),
    "one_sfw-logistic-l1ball": (
        "solve", LOGISTIC_SOLVE, ["solver.algorithm=one_sfw"]),
    "oblivious_sfw-quadratic-nuclear": (
        "solve", QUADRATIC, ["problem.dim=6", "constraint.kind=nuclear",
                             "constraint.radius=1", "constraint.rows=2",
                             "constraint.cols=3"]),
    "oblivious_sfw-quadratic-nuclear-dr": (
        "submax", QUADRATIC, ["problem.dim=6", "constraint.kind=nuclear",
                              "constraint.radius=1", "constraint.rows=2",
                              "constraint.cols=3"]),
    "scg-quadratic-l1ball-dr": ("submax", QUADRATIC, ["solver.algorithm=scg"]),
    "scg-nqp-box-dr": ("submax", NQP_BOX, []),
    "one_sfw-nqp-box-dr": ("submax", NQP_BOX, ["solver.algorithm=one_sfw"]),
    "deterministic_fw-quadratic-simplex": (
        "solve", QUADRATIC, ["solver.algorithm=deterministic_fw",
                             "constraint.kind=simplex", "constraint.scale=1.5"]),
    "bcg-coverage-matroid": (
        "bcg", FACILITY_MATROID.replace("facility", "coverage").replace(
            "n_clients", "n_topics"), ["solver.delta=0.05", "solver.batch=4"]),
    "bcg-coverage-box": (
        "bcg", COVERAGE_BOX, ["constraint.lower=0", "constraint.upper=0.6"]),
    **{f"dbg-{kind}-matroid": (
        "dbg", text, ["solver.delta=0.05", "solver.batch=2", "solver.l=5"])
       for kind, text in (("facility", FACILITY_MATROID),
                          ("coverage", _multilinear("coverage", "n_topics = 5\n")),
                          ("modular", _multilinear("modular")))},
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


def run_pinned(name: str, tmp: Path, seeds: str = str(SEED)) -> dict:
    """Run ``RUNS[name]`` on ``seeds`` (``--seeds`` text) from the repository
    root, writing into ``tmp``; digest seed ``SEED``'s files."""
    command, text, overrides = RUNS[name]
    ini = tmp / f"{name}.ini"
    ini.write_text(f"[experiment]\nname = {name}\n" + text)
    argv = [command, "--config", str(ini), "--seeds", seeds, "--out",
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


@pytest.mark.parametrize("name", list(RUNS))
def test_run_bytes_pinned_after_another_seed(name, tmp_path, monkeypatch):
    # Seed SEED run right after another seed writes the trace and sidecar it
    # writes alone: nothing one seed's run leaves behind reaches the next.
    monkeypatch.chdir(ROOT)
    got = run_pinned(name, tmp_path, f"{SEED - 1},{SEED}")
    pin = json.loads(TABLE.read_text())[name]
    assert [got["trace"], got["sidecar"]] == [pin["trace"], pin["sidecar"]]


def digests_of(names) -> dict:
    """Run the entries ``names`` of ``RUNS`` from the working directory, each
    into its own temporary directory with its output silenced: name ->
    digests."""
    out = {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            out[name] = run_pinned(name, Path(tmp))
    return out


#: The entries whose numbers come from the logistic family: margins and
#: sums that no BLAS kernel orders.  The kernel guard runs them.
LOGISTIC_RUNS = [name for name in RUNS if "logistic" in name or "distsim" in name]

_FW_GAP = "reaches BLAS through fw_gap's dot product (ROADMAP item 12)"

#: Logistic entries that may change bytes under other OpenBLAS kernels, and why
HOST_DEPENDENT = {
    "distsim-quantized-finite_nonconvex-m1": _FW_GAP,
    "distsim-unquantized-finite_nonconvex-m1": _FW_GAP,
    "oblivious_sfw-logistic-l1ball": _FW_GAP,
    "one_sfw-logistic-l1ball": _FW_GAP,
}

#: OpenBLAS kernels that hosts without AVX-512 pick: AVX2 and SSE3
CORETYPES = ("Haswell", "Prescott")


def _blas_picks_kernels_at_run_time() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _digests_under(coretype: str, names) -> dict:
    """The digests of ``names``, run in a subprocess under
    ``OPENBLAS_CORETYPE=coretype``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, __file__, "--digests", *names],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_logistic_runs_hold_across_blas_kernels(monkeypatch):
    # The other kernels' digests are compared with this process's run, not
    # with the stored pins.  An unlisted entry that moves fails, and so does
    # a listed one that holds under every kernel tried.
    if not _blas_picks_kernels_at_run_time():
        pytest.skip("numpy's OpenBLAS is built without DYNAMIC_ARCH, so "
                    "OPENBLAS_CORETYPE selects no other kernel on this host")
    monkeypatch.chdir(ROOT)
    here = digests_of(LOGISTIC_RUNS)
    moved = {c: {name for name, got in _digests_under(c, LOGISTIC_RUNS).items()
                 if got != here[name]} for c in CORETYPES}
    problems = [f"{name} moves under OPENBLAS_CORETYPE={c}; mend it, or list "
                "it in HOST_DEPENDENT with its reason"
                for c in CORETYPES for name in sorted(moved[c] - HOST_DEPENDENT.keys())]
    problems += [f"{name} holds under {', '.join(CORETYPES)}; delete its "
                 "HOST_DEPENDENT entry"
                 for name in sorted(HOST_DEPENDENT.keys() - set().union(*moved.values()))]
    assert not problems, "\n".join(problems)


def write_table(names=()):
    """Run the entries ``names`` of ``RUNS`` (every entry if none is named),
    write their digests into the table, and print the names whose digests
    changed."""
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"no such run: {', '.join(unknown)}")
    old = json.loads(TABLE.read_text())
    table = dict(old) if names else {}
    table.update(digests_of(names or RUNS))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    changed = sorted(n for n in table.keys() | old.keys()
                     if table.get(n) != old.get(n))
    print(f"wrote {len(names or RUNS)} pins to {TABLE}; changed: "
          + (", ".join(changed) or "none"))


if __name__ == "__main__":
    os.chdir(ROOT)
    if sys.argv[1:2] == ["--write"]:
        write_table(sys.argv[2:])
    elif sys.argv[1:2] == ["--digests"]:
        print(json.dumps(digests_of(sys.argv[2:] or RUNS)))
    else:
        sys.exit("usage: python tests/test_run_pins.py --write|--digests [NAME ...]")
