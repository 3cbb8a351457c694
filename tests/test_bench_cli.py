import json
from pathlib import Path

import numpy as np
import pytest

from fwlab.bench import (
    ConfigError,
    brute_force_opt,
    build_constraint,
    build_problem,
    load_config,
    run_experiment,
)
from fwlab.cli import main
from fwlab.constraints import Box, L1Ball, PartitionMatroid, PartitionMatroidPolytope
from fwlab.problems import Modular, MultilinearProblem, Quadratic


ROOT = Path(__file__).resolve().parents[1]

QUAD_INI = """\
[experiment]
name = tiny
seeds = 0
[problem]
kind = quadratic
dim = 3
[constraint]
kind = l1ball
radius = 1.0
[solver]
algorithm = oblivious_sfw
mode = convex_min
t = 10
"""

SUBMAX_INI = """\
[experiment]
name = sub
seeds = 0
[problem]
kind = multilinear_modular
dim = 4
weights = 1 5 2 4
[constraint]
kind = matroid
blocks = 0 1 | 2 3
budgets = 1 1
[solver]
algorithm = one_sfw
mode = dr_submodular_max
t = 50
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- config parsing ---------------------------------------------------------

def test_load_config_basic(tmp_path):
    cfg = load_config(_write(tmp_path, QUAD_INI))
    assert cfg.name == "tiny"
    assert cfg.seeds == [0]
    assert cfg.solver["t"] == "10"
    assert cfg.distsim is None
    assert len(cfg.digest()) == 16


def test_seeds_range_and_list(tmp_path):
    path = _write(tmp_path, QUAD_INI.replace("seeds = 0", "seeds = 3..6"))
    assert load_config(path).seeds == [3, 4, 5, 6]
    path = _write(tmp_path, QUAD_INI.replace("seeds = 0", "seeds = 1, 9, 2"))
    assert load_config(path).seeds == [1, 9, 2]
    assert load_config(path, seeds=[7]).seeds == [7]


def test_unknown_key_rejected(tmp_path):
    bad = QUAD_INI.replace("t = 10", "t = 10\nlearning_rate = 0.1")
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(_write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="wandb"):
        load_config(_write(tmp_path, QUAD_INI + "[wandb]\nproject = x\n"))


def test_missing_required_sections(tmp_path):
    no_problem = "[solver]\nalgorithm = one_sfw\n"
    with pytest.raises(ConfigError, match="problem"):
        load_config(_write(tmp_path, no_problem))
    no_solver = "[problem]\nkind = quadratic\ndim = 2\n"
    with pytest.raises(ConfigError, match="solver"):
        load_config(_write(tmp_path, no_solver))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


def test_overrides(tmp_path):
    path = _write(tmp_path, QUAD_INI)
    cfg = load_config(path, overrides=["solver.t=25"])
    assert cfg.solver["t"] == "25"
    with pytest.raises(ConfigError):
        load_config(path, overrides=["solver=25"])
    # overrides are schema-checked too
    with pytest.raises(ConfigError):
        load_config(path, overrides=["solver.learning_rate=0.1"])


def test_digest_tracks_content(tmp_path):
    path = _write(tmp_path, QUAD_INI)
    a = load_config(path).digest()
    b = load_config(path, overrides=["solver.t=11"]).digest()
    assert a != b
    assert a == load_config(path).digest()


# --- builders ---------------------------------------------------------------

def test_build_constraint_kinds():
    assert isinstance(build_constraint({"kind": "l1ball", "radius": "2"}, 3), L1Ball)
    box = build_constraint({"kind": "box", "lower": "0.1", "upper": "0.9"}, 4)
    assert isinstance(box, Box)
    assert np.allclose(box.lower, 0.1) and box.lower.size == 4
    mat = build_constraint(
        {"kind": "matroid", "blocks": "0 1 | 2 3", "budgets": "1 1"}, 4)
    assert isinstance(mat, PartitionMatroidPolytope)
    with pytest.raises(ConfigError):
        build_constraint({"kind": "moebius"}, 3)
    with pytest.raises(ConfigError):
        build_constraint({"kind": "matroid", "blocks": "0 1"}, 2)  # no budgets


def test_build_problem_kinds():
    p, f = build_problem({"kind": "quadratic", "dim": "3"})
    assert isinstance(p, Quadratic) and f is None
    p2, f2 = build_problem({"kind": "multilinear_modular", "dim": "3",
                            "weights": "1 2 3"})
    assert isinstance(p2, MultilinearProblem) and isinstance(f2, Modular)
    with pytest.raises(ConfigError):
        build_problem({"kind": "sudoku", "dim": "3"})
    with pytest.raises(ConfigError):
        build_problem({"kind": "multilinear_zebra", "dim": "3"})


def test_build_problem_instance_seed_reproducible():
    a = build_problem({"kind": "multilinear_facility", "dim": "4",
                       "n_clients": "3", "instance_seed": "7"})[1]
    b = build_problem({"kind": "multilinear_facility", "dim": "4",
                       "n_clients": "3", "instance_seed": "7"})[1]
    c = build_problem({"kind": "multilinear_facility", "dim": "4",
                       "n_clients": "3", "instance_seed": "8"})[1]
    assert np.array_equal(a.W, b.W)
    assert not np.array_equal(a.W, c.W)


# --- brute-force oracle -----------------------------------------------------

def test_brute_force_modular_per_block_max():
    f = Modular(np.array([1.0, 5.0, 2.0, 4.0, 3.0, 6.0]))
    m = PartitionMatroid([[0, 1, 2], [3, 4, 5]], [1, 1], 6)
    opt, mask = brute_force_opt(f, m)
    assert opt == pytest.approx(11.0)
    assert list(mask.nonzero()[0]) == [1, 5]


def test_brute_force_empty_budgets():
    f = Modular(np.ones(4))
    m = PartitionMatroid([[0, 1], [2, 3]], [0, 0], 4)
    opt, mask = brute_force_opt(f, m)
    assert opt == 0.0 and not mask.any()


def test_brute_force_guard():
    f = Modular(np.ones(30))
    m = PartitionMatroid([list(range(30))], [15], 30)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_opt(f, m)


# --- run_experiment ---------------------------------------------------------

def test_run_experiment_row_count_and_files(tmp_path):
    cfg = load_config(_write(tmp_path, QUAD_INI), out_dir=tmp_path / "runs")
    report = run_experiment(cfg)
    assert report["n_ok"] == 1 and report["n_failed"] == 0
    csvs = sorted((tmp_path / "runs").glob("*-s0.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text().strip().splitlines()
    assert lines[0] == "t,objective,fw_gap,est_error,oracle_calls,cum_bits,wall_ms"
    assert len(lines) == 1 + 10  # header + one row per iteration
    sidecar = csvs[0].with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    assert meta["seed"] == 0 and meta["config_hash"] == cfg.digest()
    assert (tmp_path / "runs" / f"tiny-{cfg.digest()}-report.json").exists()
    assert (tmp_path / "runs" / f"tiny-{cfg.digest()}-report.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    path = _write(tmp_path, QUAD_INI)
    cfg1 = load_config(path, out_dir=tmp_path / "a")
    cfg2 = load_config(path, out_dir=tmp_path / "b")
    run_experiment(cfg1)
    run_experiment(cfg2)
    a = sorted((tmp_path / "a").glob("*-s0.csv"))[0].read_bytes()
    b = sorted((tmp_path / "b").glob("*-s0.csv"))[0].read_bytes()
    assert a == b


def test_run_experiment_seed_isolation(tmp_path):
    bad = QUAD_INI.replace("seeds = 0", "seeds = 0..2")
    cfg = load_config(_write(tmp_path, bad), out_dir=tmp_path / "runs")
    cfg.solver["t"] = "oops"  # fails inside every seed, not at load time
    report = run_experiment(cfg)
    assert report["n_ok"] == 0 and report["n_failed"] == 3
    assert "ValueError" in report["failures"][0]["error"]


def test_run_experiment_submax(tmp_path):
    cfg = load_config(_write(tmp_path, SUBMAX_INI), out_dir=tmp_path / "runs")
    report = run_experiment(cfg)
    assert report["n_ok"] == 1
    # weights 1 5 2 4, budget 1 per block: any fractional base point scores
    # between 0 and 9; the harness check is wiring, not the guarantee
    assert 0.0 < report["aggregate"]["mean"] <= 9.0


def test_run_experiment_distsim(tmp_path):
    data = "\n".join("1," + ",".join(["0.1"] * 3) for _ in range(8)) + "\n"
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(data)
    ini = f"""\
[experiment]
name = dist
seeds = 0
[problem]
kind = logistic_csv
path = {csv_path}
[constraint]
kind = l1ball
radius = 1.0
[distsim]
setting = finite_convex
m = 2
t = 6
"""
    cfg = load_config(_write(tmp_path, ini), out_dir=tmp_path / "runs")
    report = run_experiment(cfg)
    assert report["n_ok"] == 1
    assert report["rows"][0]["cum_bits"] > 0


# --- CLI --------------------------------------------------------------------

def test_cli_solve_ok(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI)
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "runs"),
               "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "mean" in out


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI)
    assert main(["solve", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r"),
                 "--override", "solver.learning_rate=0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("override", ["solver.sweep=1", "solver.log_every=10"])
def test_cli_unread_solver_keys_exit_2(tmp_path, capsys, override):
    path = _write(tmp_path, QUAD_INI)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r"),
                 "--override", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("overrides", [
    ["solver.mode=bogus"],
    ["solver.algorithm=one_sfw", "solver.option=bogus"],
    ["solver.algorithm=bogus"],
])
def test_cli_unknown_solver_values_exit_2(tmp_path, capsys, overrides):
    args = ["solve", "--config", _write(tmp_path, QUAD_INI), "--out", str(tmp_path / "r")]
    for ov in overrides:
        args += ["--override", ov]
    assert main(args) == 2
    assert "is not one of" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_solver_algorithm_is_case_insensitive(tmp_path):
    cfg = load_config(_write(tmp_path, QUAD_INI),
                      overrides=["solver.algorithm=Oblivious_SFW"])
    assert cfg.solver["algorithm"] == "Oblivious_SFW"


def test_cli_runtime_failure_exit_3(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI)
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "r"),
               "--override", "solver.t=oops"])
    assert rc == 3
    capsys.readouterr()


def test_cli_submax_forces_mode(tmp_path, capsys):
    path = _write(tmp_path, SUBMAX_INI.replace(
        "mode = dr_submodular_max", "mode = convex_min"))
    rc = main(["submax", "--config", path, "--out", str(tmp_path / "runs")])
    assert rc == 0
    capsys.readouterr()


def test_cli_oracle(tmp_path, capsys):
    path = _write(tmp_path, SUBMAX_INI)
    rc = main(["oracle", "--config", path])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["opt"] == pytest.approx(9.0)
    assert out["argmax"] == [1, 3]


def test_cli_report(tmp_path, capsys):
    cfg = load_config(_write(tmp_path, QUAD_INI), out_dir=tmp_path / "runs")
    run_experiment(cfg)
    rc = main(["report", "--out", str(tmp_path / "runs")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_runs"] == 1
    assert out["rows"][0]["seed"] == 0
    assert main(["report", "--out", str(tmp_path / "empty_missing")]) == 2
    (tmp_path / "empty").mkdir()
    assert main(["report", "--out", str(tmp_path / "empty")]) == 3
    capsys.readouterr()


def _distsim_ini(tmp_path):
    """8 logistic rows, d=3, M=2 workers, T=6 rounds."""
    rows = [f"{(-1) ** i},{0.1 * i},{0.2},{-0.3 * i}" for i in range(8)]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    return _write(tmp_path, f"""\
[experiment]
name = dist
seeds = 0
[problem]
kind = logistic_csv
path = {csv_path}
[constraint]
kind = l1ball
radius = 1.0
[distsim]
setting = finite_convex
m = 2
t = 6
""")


def test_cli_distsim_unquantized_charges_raw_floats(tmp_path, capsys):
    path = _distsim_ini(tmp_path)
    bits = {}
    for mode in ("quantized", "unquantized"):
        out = tmp_path / mode
        assert main(["distsim", "--config", path, "--out", str(out),
                     "--override", f"distsim.mode={mode}"]) == 0
        (sidecar,) = out.glob("dist-*-s0.json")
        bits[mode] = json.loads(sidecar.read_text())["meta"]["cum_bits"]
    capsys.readouterr()
    T, M, d = 6, 2, 3
    assert bits["unquantized"] == T * (M + 1) * 32 * d
    assert bits["quantized"] != bits["unquantized"]


@pytest.mark.parametrize("override", [
    "distsim.s1=999",
    "distsim.s2=999",
    "distsim.n=8",
    "distsim.setting=stoch_convex",
    "distsim.setting=bogus",
    "distsim.mode=bogus",
])
def test_cli_distsim_rejects_at_load(tmp_path, capsys, override):
    path = _distsim_ini(tmp_path)
    assert main(["distsim", "--config", path, "--out", str(tmp_path / "r"),
                 "--override", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("override", [
    "distsim.setting=finite_nonconvex",
    "distsim.setting=stoch_nonconvex",
    "distsim.mode=fl",
])
def test_cli_distsim_accepted_values_run(tmp_path, capsys, override):
    path = _distsim_ini(tmp_path)
    assert main(["distsim", "--config", path, "--out", str(tmp_path / "r"),
                 "--override", override]) == 0
    capsys.readouterr()


def test_cli_distsim_requires_section(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI)
    assert main(["distsim", "--config", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("ini, overrides", [
    (QUAD_INI, ["solver.algorithm=one_sfw", "solver.option=grad_diff"]),
    (SUBMAX_INI, ["problem.kind=multilinear_facility", "solver.option=grad_diff"]),
], ids=["quadratic", "facility-matroid"])
def test_cli_grad_diff_off_multilinear_box_rejected_at_load(tmp_path, capsys,
                                                            ini, overrides):
    args = ["solve", "--config", _write(tmp_path, ini), "--out", str(tmp_path / "r")]
    for ov in overrides:
        args += ["--override", ov]
    assert main(args) == 2
    assert "grad_diff" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_cli_grad_diff_multilinear_box_runs(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["solve", "--config", _write(tmp_path, SUBMAX_INI),
                 "--out", str(out), "--override", "constraint.kind=box",
                 "--override", "solver.option=grad_diff"]) == 0
    capsys.readouterr()
    assert len(list(out.glob("sub-*-s0.csv"))) == 1


@pytest.mark.parametrize("block", [
    {"kind": "quadratic"},
    {"kind": "quadratic", "dim": "0"},
    {"kind": "nqp", "dim": "-1"},
    {"kind": "multilinear_facility"},
    {"kind": "multilinear_modular"},
])
def test_build_problem_needs_positive_dim(block):
    with pytest.raises(ConfigError, match="dim"):
        build_problem(block)


def test_cli_missing_dim_exit_2(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI.replace("dim = 3\n", ""))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "r")]) == 2
    assert "dim" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # the seed raised before any write


def test_modular_weights_need_no_dim():
    p, f = build_problem({"kind": "multilinear_modular", "weights": "1 2 3"})
    assert p.dim == 3 and isinstance(f, Modular)


@pytest.mark.parametrize("ini", sorted((ROOT / "scripts" / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_loads_and_builds(ini, monkeypatch):
    monkeypatch.chdir(ROOT)  # configs name their data files from the repo root
    cfg = load_config(ini.relative_to(ROOT))
    problem, _ = build_problem(cfg.problem)
    build_constraint(cfg.constraint, problem.dim)
