"""Every function defined in ``src/fwlab`` is reached by a run, or says why not.

The test runs the ``RUNS`` table of ``test_run_pins.py`` (one seed each),
``fwlab oracle`` on the shipped facility config, ``fwlab report``, and one
CLI run that exits 2 and one that exits 3, under a ``sys.setprofile`` hook.
The hook records the ``co_qualname`` of every call into ``src/fwlab``.  A
``def`` that none of these calls reaches must be listed in ``UNREACHED``
with the reason it stays, one of four kinds: an abstract base method, import
time, an error path, or an admitted path with no run yet.  Code that only
tests call belongs in ``tests/reference.py``, not in the package.  An
unlisted unreached ``def`` fails the test, and so does a listed name that
now runs or no longer exists, or a reason of another kind; a change that
deletes a name deletes its line.  List the names that fail it with

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import sys
from pathlib import Path

from fwlab.cli import build_parser, main
from fwlab.problems import Quadratic
from test_run_pins import RUNS, run_pinned

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fwlab"

_ABSTRACT = "abstract base method; every concrete class overrides it"
_IMPORT = "runs at import, before any hook is set"
_NO_RUN = "admitted path with no run yet: "
_LRMR = _NO_RUN + "problem.kind=lrmr_csv (ROADMAP item 5)"
_ERROR_PATH = "error path: "

#: "<module>.<qualname>" -> why no run reaches it
UNREACHED = {
    "bench.Interval.__init__": _IMPORT,
    "bench.Interval.__str__": _ERROR_PATH + "names the interval in the message "
                              "of a refused value (test_table_refuses_value_at_load)",
    "rng._Pool.__init__": _IMPORT,
    "rng._ServedStream._generator": _NO_RUN + "a draw past a served stream's "
                                    "first doubles, which no estimator makes "
                                    "(tests/test_rng.py draws them)",
    "constraints.FeasibleSet.lmo_min": _ABSTRACT,
    "constraints.FeasibleSet.contains": _ABSTRACT,
    "problems.StochasticProblem._sample": _ABSTRACT,
    "problems.StochasticProblem.one_sample_grad": _ABSTRACT,
    "problems.StochasticProblem.hessian_estimate": _ABSTRACT,
    "problems.StochasticProblem.exact_value": _ABSTRACT,
    "problems.StochasticProblem.exact_grad": _ABSTRACT,
    "problems.SetFunction.batch": _ABSTRACT,
    "problems.SetFunction.bound": _ABSTRACT,
    **{f"problems.RobustLRMR.{name}": _LRMR
       for name in ("__init__", "from_csv", "_psi", "_psi_d1", "_psi_d2", "_sample",
                    "value", "one_sample_grad", "hessian_estimate", "exact_value",
                    "exact_grad")},
}

#: the four kinds of reason a ``def`` may stay for: each reason starts with one
_KINDS = (_ABSTRACT, _IMPORT, _ERROR_PATH, _NO_RUN)


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
    # main() builds its parser once per process; drop any earlier test's, so
    # that the build runs inside the profiled window.
    build_parser.cache_clear()
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
    out += [f"tests/test_reachability.py: {k} stays for {reason!r}, none of the "
            "four kinds; move it to tests/reference.py"
            for k, reason in sorted(UNREACHED.items()) if not reason.startswith(_KINDS)]
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
