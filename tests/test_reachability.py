"""Every function defined in ``src/fwlab`` is reached by a run, or says why
not; every value the config table admits names what exercises it.

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
deletes a name deletes its line.

``ADMITTED`` maps each value that a choice key of ``bench._TABLE`` admits
(every problem kind, constraint kind, algorithm, mode, option, distsim
setting and distsim mode) to a test function under ``tests/`` or
``perfbench/``, a row of ``tests/claims_small.txt``, or a ``kept:`` reason.
An admitted value with no line fails, and so does a line for a value the
table no longer admits, or one whose test or row is not there.  List the
names and values that fail either test with

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import sys
from pathlib import Path

from fwlab.bench import _SELECTORS, _TABLE
from fwlab.cli import build_parser, main
from fwlab.problems import Quadratic
from test_run_pins import RUNS, run_pinned

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fwlab"

_ABSTRACT = "abstract base method; every concrete class overrides it"
_IMPORT = "runs at import, before any hook is set"
_NO_RUN = "admitted path with no run yet: "
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
    "constraints._each_row": _NO_RUN + "distsim on a simplex, matroid or "
                             "nuclear-norm ball, whose LMO answers the replica "
                             "stack row by row (test_stack_lmo_equals_per_row_calls)",
    "constraints.FeasibleSet.lmo_min": _ABSTRACT,
    "constraints.FeasibleSet.contains": _ABSTRACT,
    "problems.StochasticProblem._sample": _ABSTRACT,
    "problems.StochasticProblem.one_sample_grad": _ABSTRACT,
    "problems.StochasticProblem.hessian_estimate": _ABSTRACT,
    "problems.StochasticProblem.exact_value": _ABSTRACT,
    "problems.StochasticProblem.exact_grad": _ABSTRACT,
    "problems.SetFunction.batch": _ABSTRACT,
    "problems.SetFunction.bound": _ABSTRACT,
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


_ACCEPTANCE = "tests/test_acceptance.py::"
_QUADRATIC = "| one-sample | quadratic d=6, l1 ball r=2, convex_min, T=256, 3 seeds |"
_NQP = "| one-sample | NQP d=20, simplex, nonconvex_min, T=256, 3 seeds |"
_FACILITY = "| black-box | facility d=10, matroid (2, 2), 2 seeds |"
_QFW = "| quantized | logistic n=40 d=6, l1 ball r=2, M=4, T=15, seed 0 | qfw / raw |"

#: "<section>.<key>=<value>" -> what exercises it: a test function
#: ("<file>::<name>", under tests/ or perfbench/), the leading cells of a row
#: of tests/claims_small.txt, or "kept: " and why the value stays without one
ADMITTED = {
    "problem.kind=quadratic": _QUADRATIC + " oblivious_sfw |",
    "problem.kind=nqp": _NQP + " oblivious_sfw |",
    "problem.kind=logistic_csv": _QFW,
    "problem.kind=multilinear_facility": _FACILITY + " one_sfw T=200 |",
    "problem.kind=multilinear_coverage":
        _ACCEPTANCE + "test_12_black_box_continuous_greedy_guarantee",
    "problem.kind=multilinear_concave_modular":
        "tests/test_problems.py::test_monotone_dr_property",
    "problem.kind=multilinear_logdet": "tests/test_problems.py::test_monotone_dr_property",
    "problem.kind=multilinear_modular": "tests/test_solvers.py::test_dbg_modular_exact",
    "constraint.kind=l1ball": _QUADRATIC + " oblivious_sfw |",
    "constraint.kind=box": _ACCEPTANCE + "test_02_grad_diff_matches_exact_hessian_variant",
    "constraint.kind=simplex": _NQP + " oblivious_sfw |",
    "constraint.kind=matroid": _ACCEPTANCE + "test_04_submodular_approximation_guarantee",
    "constraint.kind=nuclear": "tests/test_constraints.py::test_nuclear_lmo_vs_svd_oracle",
    "solver.algorithm=one_sfw": _FACILITY + " one_sfw T=200 |",
    "solver.algorithm=oblivious_sfw": _QUADRATIC + " oblivious_sfw |",
    "solver.algorithm=scg": _QUADRATIC + " scg preset |",
    "solver.algorithm=deterministic_fw":
        "tests/test_solvers.py::test_deterministic_fw_simplex_quadratic",
    "solver.algorithm=bcg": _FACILITY + " bcg T=100 |",
    "solver.algorithm=dbg": _FACILITY + " dbg T=80 |",
    "solver.mode=convex_min":
        _ACCEPTANCE + "test_03_convex_suboptimality_shrinks_with_horizon",
    "solver.mode=nonconvex_min": _ACCEPTANCE + "test_05_nonconvex_stationarity_gap_shrinks",
    "solver.mode=dr_submodular_max":
        _ACCEPTANCE + "test_04_submodular_approximation_guarantee",
    "solver.option=exact_hessian": _ACCEPTANCE + "test_01_momentum_estimator_error_decays",
    "solver.option=grad_diff":
        _ACCEPTANCE + "test_02_grad_diff_matches_exact_hessian_variant",
    "distsim.setting=finite_convex": _QFW,
    "distsim.setting=finite_nonconvex":
        "kept: the non-convex finite-sum setting of Quantized Frank-Wolfe (Zhang "
        "et al., AISTATS 2020), one of the paper's two; its run is pinned and its "
        "schedule checked (test_theorem_schedule_nonconvex), but no claims row or "
        "guarantee test measures it yet",
    "distsim.mode=quantized": _QFW,
    "distsim.mode=unquantized":
        _ACCEPTANCE + "test_10_single_worker_reduces_to_sequential_reference",
}


def admitted() -> set:
    """Each value the table admits, as "<section>.<key>=<value>": the
    allowed choices of each of its keys, and the groups of each section,
    which its selector key picks."""
    out = {f"{section}.{_SELECTORS[section]}={group}"
           for section, groups in _TABLE.items() for group in groups if group}
    return out | {f"{section}.{key}={value}"
                  for section, groups in _TABLE.items() for keys in groups.values()
                  for key, entry in keys.items() if isinstance(entry.allowed, tuple)
                  for value in entry.allowed}


def _is_there(what: str) -> bool:
    """Whether the test function or claims row that ``what`` names exists;
    a ``kept:`` reason is taken as given."""
    if what.startswith("kept: "):
        return True
    if what.startswith("| "):
        rows = (ROOT / "tests" / "claims_small.txt").read_text().splitlines()
        return any(row.startswith(what) for row in rows)
    path, _, name = what.partition("::")
    file = ROOT / path
    return (path.startswith(("tests/", "perfbench/")) and file.is_file()
            and any(isinstance(node, ast.FunctionDef) and node.name == name
                    for node in ast.parse(file.read_text()).body))


def admitted_mismatches(values: set) -> list:
    """What disagrees with ``ADMITTED``, for the admitted ``values``."""
    out = [f"src/fwlab/bench.py: {v} is admitted and names nothing that exercises "
           "it; give it an ADMITTED line, or delete it"
           for v in sorted(values - ADMITTED.keys())]
    out += [f"tests/test_reachability.py: {v} is no longer admitted; delete its "
            "ADMITTED line" for v in sorted(ADMITTED.keys() - values)]
    out += [f"tests/test_reachability.py: {v} names {what!r}, which is not there"
            for v, what in sorted(ADMITTED.items()) if not _is_there(what)]
    return out


def test_every_admitted_value_names_what_exercises_it():
    problems = admitted_mismatches(admitted())
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
    print("\n".join(mismatches(definitions(), reached)
                    + admitted_mismatches(admitted())) or "ok")
