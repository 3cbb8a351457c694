"""Every function defined in ``src/fwlab`` is reached by a run, or says why not.

The test runs the ``RUNS`` table of ``test_run_pins.py`` (one seed each),
``fwlab oracle`` on the shipped facility config, ``fwlab report``, and one
CLI run that exits 2 and one that exits 3, under a ``sys.setprofile`` hook.
The hook records the ``co_qualname`` of every call into ``src/fwlab``.  A
``def`` that none of these calls reaches must be listed in ``UNREACHED``
with the reason it stays: the guarantee or reference test that needs it, an
abstract base method, import time, an error path, or an admitted path with
no run yet.  An unlisted unreached ``def`` fails the test, and so does a
listed name that now runs or no longer exists; a PR that deletes a name
deletes its line.  List the names that fail it with

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import sys
from pathlib import Path

from fwlab.cli import main
from fwlab.problems import Quadratic
from test_run_pins import RUNS, run_pinned

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fwlab"

_ABSTRACT = "abstract base method; every concrete class overrides it"
_IMPORT = "runs at import, before any hook is set"
_NO_RUN = "admitted path with no run yet: "
_LRMR = _NO_RUN + "problem.kind=lrmr_csv (ROADMAP item 5)"
_TEST_07 = "guarantee test test_07 (quantizer variance law) compares with it"

#: "<module>.<qualname>" -> why no run reaches it
UNREACHED = {
    "bench.Interval.__init__": _IMPORT,
    "bench.Interval.__str__": "error path: names the interval in the message "
                              "of a refused value (test_table_refuses_value_at_load)",
    "rng._Pool.__init__": _IMPORT,
    "constraints.FeasibleSet.lmo_min": _ABSTRACT,
    "constraints.FeasibleSet.contains": _ABSTRACT,
    "problems.StochasticProblem._sample": _ABSTRACT,
    **{f"problems.StochasticProblem.{name}": "abstract base method; every "
       "oblivious class overrides it, and MultilinearProblem's own estimates "
       "read none" for name in ("grad", "hess_vec")},
    "problems.StochasticProblem.exact_value": _ABSTRACT,
    "problems.StochasticProblem.exact_grad": _ABSTRACT,
    "problems.SetFunction.bound": _ABSTRACT,
    "problems.Modular.__call__": (
        _NO_RUN + "fwlab oracle and dbg on multilinear_modular evaluate f(S) "
        "through it; a one-sample f(z) reads the 2^d table (ROADMAP item 1)"),
    "problems.Coverage.batch": (
        _NO_RUN + "dbg on multilinear_coverage samples f through it; the runs "
        "read the 2^d table, which test_every_table_keeps_its_bits checks "
        "against it (ROADMAP item 1)"),
    "problems.LogisticL1.value": "test_distsim checks FiniteSumProblem.value "
                                 "against it bit for bit",
    **{f"problems.RobustLRMR.{name}": _LRMR
       for name in ("__init__", "from_csv", "_psi", "_psi_d1", "_psi_d2", "_sample",
                    "value", "grad", "hess_vec", "exact_value", "exact_grad")},
    **{f"problems.TableSetFunction.{name}": "guarantee test test_14 draws its "
       "functions from make_random_bounded" for name in ("__init__", "batch", "bound")},
    "problems.make_random_bounded": "guarantee test test_14 draws its functions "
                                    "from it",
    **{f"problems.FiniteSumProblem.from_quadratics{local}": "guarantee test "
       "test_10 (single worker = sequential reference) runs on it"
       for local in ("", ".<locals>.values", ".<locals>.grads")},
    "estimators.smoothed_value_mc": "guarantee test test_11 (smoothing) "
                                    "compares with it",
    "rng.sample_unit_ball": "draws smoothed_value_mc's points (test_11)",
    "quantize.bernoulli_params": _TEST_07,
    "quantize.exact_variance": _TEST_07,
    "quantize.variance_upper_bound": _TEST_07,
    "quantize.encode_decode_batch": _TEST_07,
}


def definitions() -> dict:
    """Every ``def`` in src/fwlab: "<module>.<qualname>" -> "file:line"."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out[f"{path.stem}.{name}"] = f"{path.relative_to(ROOT)}:{child.lineno}"
                walk(child, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path)
    return out


def called(workload) -> set:
    """The "<module>.<qualname>" of every src/fwlab function ``workload()``
    calls, recorded by a profile hook; the previous hook is restored."""
    seen, src = set(), str(SRC)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                seen.add((code.co_filename, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(previous)
    return {f"{Path(f).stem}.{q}" for f, q in seen}


def run_everything(tmp: Path):
    """The runs this test covers, from the repository root."""
    for name in RUNS:
        (tmp / name).mkdir()
        run_pinned(name, tmp / name)
    assert main(["oracle", "--config", "scripts/configs/submax_facility.ini"]) == 0
    assert main(["report", "--out", str(tmp / "dbg-facility-matroid" / "out")]) == 0
    # A constraint of another dimension than the problem's: exit 2 at build.
    assert main(["solve", "--config", "scripts/configs/quadratic.ini",
                 "--out", str(tmp / "exit2"),
                 "--override", "constraint.kind=box",
                 "--override", "constraint.lower=0 0 0",
                 "--override", "constraint.upper=1 1 1"]) == 2
    # Every seed raises: exit 3.
    def failing_sample(self, x, rng):
        raise RuntimeError("boom")

    sample, Quadratic.sample = Quadratic.sample, failing_sample
    try:
        assert main(["solve", "--config", "scripts/configs/quadratic.ini",
                     "--seeds", "0,1", "--out", str(tmp / "exit3"),
                     "--override", "solver.t=3"]) == 3
    finally:
        Quadratic.sample = sample


def mismatches(defs: dict, reached: set) -> list:
    """What disagrees with ``UNREACHED``, one line each, with file:line."""
    out = [f"{defs[k]}: {k} is reached by no run; delete it, or list it in "
           "UNREACHED with its reason"
           for k in sorted(defs.keys() - reached - UNREACHED.keys())]
    out += [f"{defs[k]}: {k} now runs; delete its UNREACHED entry"
            for k in sorted(UNREACHED.keys() & reached & defs.keys())]
    out += [f"tests/test_reachability.py: {k} is no longer defined; delete its "
            "UNREACHED entry" for k in sorted(UNREACHED.keys() - defs.keys())]
    return out


def test_every_def_is_reached_or_listed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    reached = called(lambda: run_everything(tmp_path))
    capsys.readouterr()
    problems = mismatches(definitions(), reached)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        reached = called(lambda: run_everything(Path(tmp)))
    print("\n".join(mismatches(definitions(), reached)) or "ok")
