"""Tests of the benchmark's own code.

Run from the root of a checkout:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import fwlab.constraints as constraints
import fwlab.estimators as estimators
import fwlab.solvers as solvers
from fwlab.cli import main
from run import END_TO_END
from tracer import LAYER_METRICS, NAME, PARENT, Tracer, bindings, layer_metrics, self_times
from worker import SeedRunner
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent


def _fake_clock():
    now = [0]
    return now, (lambda: now[0])


def test_self_time_of_nested_calls():
    now, clock = _fake_clock()
    tr = Tracer(clock=clock)

    def leaf():
        now[0] += 5

    def inner():
        now[0] += 2
        leaf_w()
        now[0] += 3

    def outer():
        now[0] += 1
        inner_w()
        inner_w()
        now[0] += 4

    leaf_w = tr.span("rng.child", leaf)
    inner_w = tr.span("estimators.momentum", inner)
    outer_w = tr.span("solvers.solve", outer)
    outer_w()

    names = [s[NAME] for s in tr.spans]
    assert names == ["solvers.solve", "estimators.momentum", "rng.child",
                     "estimators.momentum", "rng.child"]
    assert [s[PARENT] for s in tr.spans] == [-1, 0, 1, 0, 3]
    # durations 25, 10, 5, 10, 5; each layer does 5 ticks of its own work
    assert self_times(tr.spans) == [5, 5, 5, 5, 5]

    m = layer_metrics(tr.spans, n_seeds=2, traced_s=30.0, untraced_s=20.0,
                      unit_s=1.0)
    assert m["solvers.self_s"] == 2.5
    assert m["estimators.momentum_s"] == 5.0
    assert m["rng.child_calls"] == 1.0
    assert m["rng.child_s"] == 5.0
    assert m["trace.overhead_frac"] == 0.5


def test_same_layer_reentry_is_one_span_and_reference_counts_once():
    now, clock = _fake_clock()
    tr = Tracer(clock=clock)

    def value():
        now[0] += 3

    def lmo(depth):
        now[0] += 1
        if depth:
            lmo_w(depth - 1)

    value_w = tr.span("problems.finite_sum_value", value)
    lmo_w = tr.span("constraints.lmo", lmo)

    def log():
        now[0] += 2
        value_w()

    tr.span("solvers.log", log)()
    lmo_w(2)
    assert [s[NAME] for s in tr.spans] == [
        "solvers.log", "problems.finite_sum_value", "constraints.lmo"]
    m = layer_metrics(tr.spans, 1, traced_s=10.0, untraced_s=10.0, unit_s=1.0)
    assert m["constraints.lmo_calls"] == 1 and m["constraints.lmo_s"] == 3
    # roots: log (5 ticks, its child included once) and lmo (3 ticks)
    assert m["solvers.reference_share"] == 5 / 8


TINY = {
    "quadratic.ini": ("solve", """\
[problem]
kind = quadratic
dim = 6
noise = 1.0
[constraint]
kind = {kind}
radius = 1.0
scale = 1.0
rows = 2
cols = 3
[solver]
algorithm = oblivious_sfw
mode = convex_min
t = 5
"""),
    "facility.ini": ("submax", """\
[problem]
kind = multilinear_facility
dim = 4
n_clients = 3
[constraint]
kind = matroid
blocks = 0 1 | 2 3
budgets = 1 1
[solver]
algorithm = one_sfw
option = exact_hessian
t = 5
"""),
    "graddiff.ini": ("submax", """\
[problem]
kind = multilinear_modular
dim = 3
weights = 1 2 3
[constraint]
kind = box
upper = 0.5
[solver]
algorithm = one_sfw
option = grad_diff
t = 5
"""),
    "bcg.ini": ("bcg", """\
[problem]
kind = multilinear_coverage
dim = 4
n_topics = 3
[constraint]
kind = matroid
blocks = 0 1 | 2 3
budgets = 1 1
[solver]
t = 3
batch = 2
"""),
    "distsim.ini": ("distsim", """\
[problem]
kind = logistic_csv
path = {csv}
[constraint]
kind = l1ball
radius = 1.0
[distsim]
setting = finite_nonconvex
m = 2
t = 4
"""),
}


def test_tiny_traced_run_hits_every_binding(tmp_path):
    csv = tmp_path / "tiny.csv"
    csv.write_text("1,0.5,-1.0\n-1,0.25,0.75\n1,-0.5,0.1\n-1,1.0,0.2\n")
    runs = []
    for name, (command, text) in TINY.items():
        kinds = ["l1ball", "simplex", "nuclear"] if name == "quadratic.ini" else [None]
        for kind in kinds:
            ini = tmp_path / f"{kind}-{name}"
            ini.write_text(text.format(kind=kind, csv=csv))
            runs.append([command, "--config", str(ini), "--seed", "3",
                         "--out", str(tmp_path / "out")])

    tr = Tracer().install()
    try:
        codes = [main(argv) for argv in runs]
    finally:
        tr.uninstall()
    assert codes == [0] * len(runs)

    table = [(owner.__name__, attr, name) for owner, attr, name, _ in bindings()]
    missed = [(o, a) for o, a, name in table
              if not name.startswith("constraints.") and tr.hits[(o, a)] == 0]
    assert missed == [], f"bindings never called: {missed}"
    # Not every set reaches both LMOs (nothing calls BudgetBoxPolytope.lmo_min),
    # so each concrete set must see some LMO call and some membership check.
    sets = {o for o, _, name in table if name.startswith("constraints.")}
    assert sets >= {"L1Ball", "Box", "Simplex", "PartitionMatroidPolytope",
                    "BudgetBoxPolytope", "NuclearNormBall"}
    for cls in sets:
        lmo = tr.hits[(cls, "lmo_min")] + tr.hits[(cls, "lmo_max")]
        assert lmo > 0 and tr.hits[(cls, "contains")] > 0, cls

    # every span but the roots has a parent that encloses it
    for s in tr.spans:
        if s[PARENT] >= 0:
            p = tr.spans[s[PARENT]]
            assert p[1] <= s[1] <= s[2] <= p[2]

    # uninstall restores module attributes and inherited methods
    assert solvers.momentum_update is estimators.momentum_update
    assert "lmo_max" not in constraints.L1Ball.__dict__


def test_inputs_follow_the_workload_seed(tmp_path):
    w = WORKLOADS["qfw-logistic-n4000"]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b, c = (make_inputs(w, s, d) for s, d in zip((5, 5, 6), dirs))
    assert a.solver_seed0 == b.solver_seed0 != c.solver_seed0
    csvs = [(d / "logistic.csv").read_bytes() for d in dirs]
    assert csvs[0] == csvs[1] != csvs[2]
    assert len(csvs[0].splitlines()) == 4000


def test_seed_check_rejects_a_run_that_stopped_early(tmp_path):
    w = WORKLOADS["sfw-quadratic"]
    runner = SeedRunner(w, "unused.ini", reference_value=0.0)
    (tmp_path / "run-s7.json").write_text("{}")

    def trace_ending_at(t):
        (tmp_path / "run-s7.csv").write_text(f"t,objective\n1,2.0\n{t},0.01\n")

    trace_ending_at(w.iterations)
    assert runner.check(7, tmp_path) is None
    trace_ending_at(w.iterations - 1)
    assert "trace ends at" in runner.check(7, tmp_path)
    (tmp_path / "run-s7.csv").write_text("t,objective\n")
    assert "trace ends at" in runner.check(7, tmp_path)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in LAYER_METRICS]
