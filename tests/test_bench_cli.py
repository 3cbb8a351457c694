import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fwlab import bench
from fwlab.bench import (
    ConfigError,
    Interval,
    brute_force_opt,
    build_constraint,
    build_problem,
    load_config,
    run_experiment,
)
from fwlab.cli import build_parser, main
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
    assert load_config(path, ["experiment.seeds=7"]).seeds == [7]


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


def _quantile_inputs():
    """Arrays of 1..60 values: ties, -0.0 beside 0.0, negatives, and
    magnitudes from subnormal to 1e300; and one with a NaN."""
    rng = np.random.default_rng(20)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1.0, 1.0,
                     2.5, 2.5, -7.25, 1e300, -1e300])
    for n in range(1, 61):
        yield rng.choice([0.0, -0.0], size=n)
        yield rng.choice(pool, size=n)
        yield rng.integers(-2, 3, size=n) * rng.choice([1.0, -0.0], size=n)
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-320, 301, size=n)
    yield np.array([1.0, np.nan, -0.0])  # numpy returns the NaN, sorted last


def test_report_quantiles_match_numpy_bitwise():
    for arr in _quantile_inputs():
        for q in (0.25, 0.5, 0.75):
            want = float(np.quantile(arr, q)).hex()
            assert bench._quantile(arr, q).hex() == want, (arr.tolist(), q)


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


def test_run_builds_problem_and_constraint_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(name):
        build = getattr(bench, name)

        def wrapper(*args):
            calls.append(name)
            return build(*args)
        return wrapper

    for name in ("build_problem", "build_constraint"):
        monkeypatch.setattr(bench, name, counted(name))
    out = tmp_path / "r"
    assert main(["solve", "--config", _write(tmp_path, QUAD_INI), "--seeds", "0..2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["build_constraint", "build_problem"]
    assert len(list(out.glob("*-s*.csv"))) == 3


def test_seed_failing_mid_run_fails_alone(tmp_path, capsys, monkeypatch):
    # Seed 1 raises after drawing 5 samples from the problem all seeds
    # share; seeds 0 and 2 still write the bytes they write alone.
    path = _write(tmp_path, QUAD_INI)
    for seed in (0, 2):
        assert main(["solve", "--config", path, "--seed", str(seed),
                     "--out", str(tmp_path / f"alone{seed}")]) == 0
    seeds = []
    run_one_seed, sample = bench._run_one_seed, Quadratic.sample

    def run_seed(cfg, problem, setf, set_, seed):
        seeds.append(seed)
        return run_one_seed(cfg, problem, setf, set_, seed)

    def failing_sample(self, x, rng):
        if seeds[-1] == 1 and self.samples_drawn == 5:
            raise RuntimeError("boom")
        return sample(self, x, rng)

    monkeypatch.setattr(bench, "_run_one_seed", run_seed)
    monkeypatch.setattr(Quadratic, "sample", failing_sample)
    out = tmp_path / "r"
    assert main(["solve", "--config", path, "--seeds", "0..2", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(next(out.glob("*-report.json")).read_text())
    assert (report["n_ok"], report["n_failed"]) == (2, 1)
    assert report["failures"] == [{"seed": 1, "error": "RuntimeError: boom"}]
    for seed in (0, 2):
        for alone in (tmp_path / f"alone{seed}").glob(f"*-s{seed}.*"):
            assert (out / alone.name).read_bytes() == alone.read_bytes()
    assert not list(out.glob("*-s1.*"))


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


def test_cli_runtime_failure_exit_3(tmp_path, capsys, monkeypatch):
    # Every seed raises: each failure is reported, and the run exits 3.
    def failing_sample(self, x, rng):
        raise RuntimeError("boom")

    monkeypatch.setattr(Quadratic, "sample", failing_sample)
    rc = main(["solve", "--config", _write(tmp_path, QUAD_INI), "--seeds", "0,1",
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "seed 0 failed: RuntimeError: boom" in err
    assert "seed 1 failed: RuntimeError: boom" in err


def test_cli_seed_and_seeds_exit_2(tmp_path, capsys, monkeypatch):
    # --seed and --seeds both set experiment.seeds: given together, the
    # command line is refused before anything runs or is written.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as e:
        main(["solve", "--config", _CONFIGS + "quadratic.ini", "--seed", "3",
              "--seeds", "0..1", "--out", str(out)])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # main() builds the argparse tree on its first call in a process and
    # reuses it on every later call.
    monkeypatch.chdir(ROOT)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    argv = ["solve", "--config", _CONFIGS + "quadratic.ini", "--seed", "0",
            "--override", "solver.t=3", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert len(built) == 8  # fwlab and its 7 commands
    assert main(argv + [str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert len(built) == 8


def _run_files(out: Path) -> dict:
    """Each file a run wrote, by name: its bytes, except that the report
    rows drop their ``wall_s``, a timing."""
    files = {}
    for p in sorted(out.iterdir()):
        if p.name.endswith("-report.json"):
            report = json.loads(p.read_text())
            for row in report["rows"]:
                row.pop("wall_s")
            files[p.name] = report
        elif p.name.endswith("-report.csv"):
            with open(p) as fh:
                files[p.name] = [{k: v for k, v in row.items() if k != "wall_s"}
                                 for row in csv.DictReader(fh)]
        else:
            files[p.name] = p.read_bytes()
    return files


def test_cli_reused_parser_carries_no_state(tmp_path, capsys, monkeypatch):
    # A second main() call in one process writes what the same command
    # writes in a fresh process: neither the first call's --override nor its
    # --seeds survives in the reused parser.
    monkeypatch.chdir(ROOT)
    solve = ["solve", "--config", _CONFIGS + "quadratic.ini"]
    assert main(solve + ["--override", "solver.t=3", "--seeds", "0..1",
                         "--out", str(tmp_path / "first")]) == 0
    assert main(solve + ["--seed", "0", "--out", str(tmp_path / "reused")]) == 0
    capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # import builds no parser; main() builds it
    code = ("import sys\n"
            "from fwlab import cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", code, *solve, "--seed", "0",
                           "--out", str(tmp_path / "fresh")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert _run_files(tmp_path / "reused") == _run_files(tmp_path / "fresh")
    # the exclusive --seed/--seeds group is still checked on each call
    out = tmp_path / "both"
    with pytest.raises(SystemExit) as e:
        main(solve + ["--seed", "0", "--seeds", "0..1", "--out", str(out)])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    ["constraint.kind=box", "constraint.lower=0 0 0", "constraint.upper=1 1 1"],
    ["constraint.kind=nuclear", "constraint.rows=2", "constraint.cols=2"],
])
def test_cli_constraint_dimension_mismatch_exit_2(tmp_path, capsys, monkeypatch,
                                                  overrides):
    # quadratic.ini's problem has dimension 6; these sets have 3 and 4.
    monkeypatch.chdir(ROOT)
    args = ["solve", "--config", "scripts/configs/quadratic.ini",
            "--out", str(tmp_path / "r")]
    for ov in overrides:
        args += ["--override", ov]
    assert main(args) == 2
    assert "for a problem of dimension 6" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("override", [
    "solver.t=oops", "solver.t=0", "solver.t=2.5", "solver.batch=0",
    "solver.l=x", "solver.delta=0", "solver.delta=nan", "solver.eta_c=-1",
    "solver.eta_a=inf",
])
def test_cli_numeric_solver_values_rejected_at_load(tmp_path, capsys, override):
    assert main(["solve", "--config", _write(tmp_path, QUAD_INI),
                 "--out", str(tmp_path / "r"), "--override", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_cli_dbg_delta_range_rejected_at_load(tmp_path, capsys, monkeypatch):
    # dbg's probe radius must lie in (0, 1/2); 0.7 once failed every seed.
    monkeypatch.chdir(ROOT)
    assert main(["dbg", "--config", "scripts/configs/submax_facility.ini",
                 "--out", str(tmp_path / "r"),
                 "--override", "solver.algorithm=dbg",
                 "--override", "solver.delta=0.7"]) == 2
    assert "solver.delta='0.7'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


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


def test_cli_report_counts_only_per_seed_sidecars(tmp_path, capsys):
    # "-s" in the name once made the run's own report match as a seed row
    path = _write(tmp_path, QUAD_INI.replace("name = tiny", "name = my-solve")
                  .replace("seeds = 0", "seeds = -1..1"))
    run_experiment(load_config(path, out_dir=tmp_path / "runs"))
    assert main(["report", "--out", str(tmp_path / "runs")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_runs"] == 3
    assert [r["seed"] for r in out["rows"]] == [-1, 0, 1]


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
    "distsim.setting=stoch_nonconvex",
    "distsim.setting=bogus",
    "distsim.mode=bogus",
    "distsim.t=0",
    "distsim.t=oops",
    "distsim.m=0",
    "distsim.m=1.5",
    "distsim.m=3",  # does not divide the 8 rows; checked at build, before any seed
])
def test_cli_distsim_rejects_at_load(tmp_path, capsys, override):
    path = _distsim_ini(tmp_path)
    assert main(["distsim", "--config", path, "--out", str(tmp_path / "r"),
                 "--override", override]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("override", [
    "distsim.setting=finite_nonconvex",
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


@pytest.mark.parametrize("command", ["solve", "bcg", "submax", "oracle"])
def test_cli_distsim_config_runs_only_as_distsim(tmp_path, capsys, command):
    # solve and oracle load the config as it stands; bcg and submax add a
    # [solver] key, which a [distsim] config does not read.
    args = [command, "--config", _distsim_ini(tmp_path), "--out", str(tmp_path / "r")]
    assert main(args) == 2
    assert "distsim" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_cli_solver_and_distsim_sections_rejected_at_load(tmp_path, capsys):
    path = _distsim_ini(tmp_path)
    with open(path, "a") as fh:
        fh.write("[solver]\nt = 5\n")
    assert main(["distsim", "--config", path, "--out", str(tmp_path / "r")]) == 2
    assert "[solver] and [distsim]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_cli_distsim_needs_logistic_problem(tmp_path, capsys):
    path = _write(tmp_path, QUAD_INI.replace("[solver]", "[distsim]").replace(
        "algorithm = oblivious_sfw\nmode = convex_min\n", ""))
    assert main(["distsim", "--config", path, "--out", str(tmp_path / "r")]) == 2
    assert "logistic_csv" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("ini, overrides, message", [
    (SUBMAX_INI, ["problem.kind=multilinear_zebra"], "problem.kind"),
    (SUBMAX_INI, ["constraint.kind=moebius"], "constraint.kind"),
    (QUAD_INI, ["solver.algorithm=bcg"], "bcg needs a multilinear problem"),
    (QUAD_INI, ["solver.algorithm=dbg"], "dbg needs a multilinear problem"),
    (SUBMAX_INI, ["solver.algorithm=dbg", "constraint.kind=box"], "dbg needs a matroid"),
    (SUBMAX_INI, ["solver.algorithm=bcg", "constraint.kind=l1ball"],
     "bcg needs a box or matroid"),
    (SUBMAX_INI, ["solver.algorithm=oblivious_sfw"], "oblivious"),
    # a zero budget empties bcg's shrunk set; once every seed exited 3
    (SUBMAX_INI, ["solver.algorithm=bcg", "constraint.budgets=0 1"],
     "leaves bcg no set to run on: block budget exhausted by shrink"),
    (SUBMAX_INI, ["solver.algorithm=dbg", "constraint.budgets=0 1"],
     "leaves dbg no set to run on: block budget exhausted by shrink"),
    (SUBMAX_INI, ["solver.algorithm=dbg", "constraint.budgets=2 1"],
     "below its block size"),
    # bcg starts at 0 of the box shrunk by delta, which the first box does not
    # hold and the second leaves empty; once every seed exited 3
    (SUBMAX_INI, ["solver.algorithm=bcg", "constraint.kind=box",
                  "constraint.lower=0.3", "constraint.upper=0.7"],
     "bcg starts at 0 of the box shrunk by solver.delta"),
    (SUBMAX_INI, ["solver.algorithm=bcg", "constraint.kind=box",
                  "constraint.lower=0", "constraint.upper=0.01"],
     "leaves bcg no set to run on: empty box after shrink"),
    # a multilinear problem samples at the iterates, which must lie in
    # [0, 1]^d; once every seed exited 3
    (SUBMAX_INI, ["constraint.kind=l1ball", "solver.mode=convex_min"],
     "one_sfw on a multilinear problem needs"),
    (SUBMAX_INI, ["solver.algorithm=scg", "constraint.kind=box",
                  "constraint.upper=1.5"], "scg on a multilinear problem needs"),
    (SUBMAX_INI, ["constraint.kind=box", "constraint.lower=-0.1"],
     "one_sfw on a multilinear problem needs"),
    (SUBMAX_INI, ["solver.algorithm=scg", "constraint.kind=simplex",
                  "constraint.scale=2", "solver.mode=convex_min"],
     "scg on a multilinear problem needs"),
    (SUBMAX_INI, ["constraint.kind=nuclear", "constraint.rows=2",
                  "constraint.cols=2", "solver.mode=convex_min"],
     "one_sfw on a multilinear problem needs"),
    # off the cube the exact polynomial is no extension of f: a facility
    # function, >= 0 on every subset, once ran down to -5.12 on the l1 ball
    ((ROOT / "scripts/configs/submax_facility.ini").read_text(),
     ["solver.algorithm=deterministic_fw", "solver.mode=convex_min",
      "constraint.kind=l1ball", "solver.t=5"],
     "deterministic_fw on a multilinear problem needs"),
    # DR maximization starts at 0, which neither set holds; once every seed
    # exited 3
    (SUBMAX_INI, ["constraint.kind=simplex"], "starts at 0"),
    (SUBMAX_INI, ["constraint.kind=box", "constraint.lower=0.3",
                  "constraint.upper=0.7"], "starts at 0"),
    # deterministic_fw reads no mode: under submax it once minimized, ending
    # at 0.0 with the trace bytes of the convex_min run
    (SUBMAX_INI, ["solver.algorithm=deterministic_fw"],
     "deterministic_fw minimizes: it cannot run solver.mode=dr_submodular_max"),
    # nor under nonconvex_min, which once wrote the convex_min run's bytes
    (QUAD_INI, ["solver.algorithm=deterministic_fw", "solver.mode=nonconvex_min"],
     "deterministic_fw minimizes: it cannot run solver.mode=nonconvex_min"),
    # bcg and dbg always maximize: `fwlab bcg --override solver.mode=convex_min`
    # once wrote the trace and report bytes of the dr_submodular_max run
    (SUBMAX_INI, ["solver.algorithm=bcg", "solver.mode=convex_min"],
     "bcg maximizes: it cannot run solver.mode=convex_min"),
    (SUBMAX_INI, ["solver.algorithm=dbg", "solver.mode=nonconvex_min"],
     "dbg maximizes: it cannot run solver.mode=nonconvex_min"),
    # rows·cols agree, so the build once ran on the transposed ball
    (QUAD_INI, ["problem.kind=lrmr_csv", "problem.path=ratings.csv",
                "problem.rows=2", "problem.cols=3", "constraint.kind=nuclear",
                "constraint.rows=3", "constraint.cols=2"],
     "an lrmr_csv problem of 2x3 matrices on a nuclear ball of 3x2 matrices"),
], ids=["multilinear-kind", "constraint-kind", "bcg-quadratic", "dbg-quadratic",
        "dbg-box", "bcg-l1ball", "oblivious-multilinear", "bcg-zero-budget",
        "dbg-zero-budget", "dbg-full-budget", "bcg-box-without-origin",
        "bcg-box-empty", "one_sfw-multilinear-l1ball",
        "scg-multilinear-box-above-1", "one_sfw-multilinear-box-below-0",
        "scg-multilinear-simplex-2", "one_sfw-multilinear-nuclear",
        "deterministic_fw-multilinear-l1ball",
        "dr-simplex", "dr-box-without-origin", "deterministic_fw-dr",
        "deterministic_fw-nonconvex", "bcg-convex_min", "dbg-nonconvex_min",
        "lrmr-transposed-nuclear"])
def test_cli_pairings_rejected_at_load(tmp_path, capsys, monkeypatch, ini, overrides,
                                       message):
    # The rules ask the built problem and set, so the run refuses the pairing
    # once it has built them, before any seed.  The lrmr case reads its
    # ratings, a 2x3 matrix, from the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ratings.csv").write_text("0,0,1.0\n1,2,-0.5\n")
    path = _write(tmp_path, ini)
    with pytest.raises(ConfigError, match=message):
        run_experiment(load_config(path, overrides, out_dir=tmp_path / "r"))
    args = ["solve", "--config", path, "--out", str(tmp_path / "r")]
    for ov in overrides:
        args += ["--override", ov]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


FACILITY_21_INI = """\
[experiment]
name = facility21
seeds = 0..1
[problem]
kind = multilinear_facility
dim = 21
[constraint]
kind = matroid
blocks = 0 1 2 3 4 5 6 7 8 9 | 10 11 12 13 14 15 16 17 18 19 20
budgets = 1 2
[solver]
algorithm = one_sfw
mode = dr_submodular_max
option = exact_hessian
t = 5
"""


@pytest.mark.parametrize("overrides", [
    [], ["solver.algorithm=scg"], ["solver.algorithm=bcg"],
    ["solver.algorithm=deterministic_fw", "solver.mode=convex_min"],
    ["problem.kind=multilinear_modular", "problem.weights=" + " ".join(["1"] * 21)],
], ids=["one_sfw", "scg", "bcg", "deterministic_fw", "modular-weights"])
def test_cli_multilinear_above_enumeration_budget_rejected_at_load(tmp_path, capsys,
                                                                   overrides):
    # Every seed once failed with "EnumerationBudgetError: d=21 exceeds
    # enumeration budget 20" (exit 3, a report left in --out).
    args = ["solve", "--config", _write(tmp_path, FACILITY_21_INI),
            "--out", str(tmp_path / "r")]
    for ov in overrides:
        args += ["--override", ov]
    assert main(args) == 2
    assert "d=21 exceeds the enumeration budget 20" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


def test_cli_dbg_runs_above_enumeration_budget(tmp_path, capsys):
    # dbg only samples f, so it takes a ground set past the budget.
    out = tmp_path / "r"
    assert main(["dbg", "--config", _write(tmp_path, FACILITY_21_INI),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(list(out.glob("facility21-*-s1.json"))) == 1


@pytest.mark.parametrize("ini, algo, key", [
    ("quadratic.ini", "deterministic_fw", "eta_c"),
    ("quadratic.ini", "deterministic_fw", "eta_a"),
    ("bcg_coverage.ini", "bcg", "eta_c"),
    ("submax_facility.ini", "dbg", "eta_a"),
])
def test_cli_eta_keys_unread_by_algorithm_rejected_at_load(tmp_path, capsys,
                                                           monkeypatch, ini, algo, key):
    # these algorithms take no step schedule; the keys were once checked and
    # then ignored, the trace bytes the same with and without them
    monkeypatch.chdir(ROOT)
    assert main(["solve", "--config", f"scripts/configs/{ini}",
                 "--out", str(tmp_path / "r"),
                 "--override", f"solver.algorithm={algo}",
                 "--override", f"solver.{key}=0.5"]) == 2
    assert (f"solver.{key} sets the step schedule of one_sfw, oblivious_sfw and "
            f"scg; {algo} does not read it") in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("command, budgets", [("bcg", "2 1"), ("dbg", "0 0")])
def test_cli_bcg_dbg_run_on_full_and_empty_budgets(tmp_path, capsys, command, budgets):
    # bcg on a full budget (block 0 1) once failed every seed with
    # "cap exceeds total box mass of its block"; dbg answers all-zero
    # budgets with the empty set.
    out = tmp_path / "r"
    assert main([command, "--config", _write(tmp_path, SUBMAX_INI),
                 "--out", str(out), "--seed", "0",
                 "--override", "problem.kind=multilinear_coverage",
                 "--override", f"constraint.budgets={budgets}",
                 "--override", "solver.t=20"]) == 0
    capsys.readouterr()
    assert len(list(out.glob("sub-*-s0.json"))) == 1


SHRINK_INI = """\
[experiment]
name = shrink
seeds = 0..1
[problem]
kind = multilinear_coverage
dim = 12
[constraint]
kind = matroid
blocks = 0 1 2 3 4 5 6 7 8 9 10 11
budgets = 1
[solver]
t = 5
delta = 0.1
batch = 2
"""


@pytest.mark.parametrize("command", ["bcg", "dbg"])
def test_cli_budget_below_shrink_rejected_at_build(tmp_path, capsys, command):
    # Budget 1 < 0.1·12 leaves the block no room in the shrunk set: every
    # seed once failed with "block budget exhausted by shrink" (exit 3, a
    # report left in --out).
    out = tmp_path / "r"
    assert main([command, "--config", _write(tmp_path, SHRINK_INI),
                 "--out", str(out)]) == 2
    assert (f"config error: solver.delta=0.1 leaves {command} no set to run on: "
            "block budget exhausted by shrink") in capsys.readouterr().err
    assert not out.exists()  # nothing ran


DBG_INI = """\
[experiment]
name = dbg25
seeds = 0
[problem]
kind = multilinear_modular
dim = {dim}
[constraint]
kind = matroid
blocks = {blocks}
budgets = {budgets}
[solver]
algorithm = dbg
mode = dr_submodular_max
t = 10
delta = 0.05
"""


@pytest.mark.parametrize("blocks, budgets, code", [
    ([25], "24", 2), ([25], "23", 0), ([2, 25], "1 24", 2),
])
def test_cli_dbg_budget_above_shrunk_box_mass_rejected_at_load(tmp_path, capsys,
                                                               blocks, budgets, code):
    # A block of 25 at delta 0.05 holds at most 25·(1 − 0.05) = 23.75 in the
    # shrunk set: budget 24 once failed pipage rounding in every seed
    # (exit 3); now it is refused at load.  Budget 23 runs.
    out = tmp_path / "r"
    ends = np.cumsum([0] + blocks)
    path = _write(tmp_path, DBG_INI.format(
        dim=ends[-1], budgets=budgets,
        blocks=" | ".join(" ".join(map(str, range(a, b))) for a, b in zip(ends, ends[1:]))))
    assert main(["dbg", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "below its block size by at least |block|·solver.delta" in err
        assert not out.exists()  # nothing ran
    else:
        assert len(list(out.glob("dbg25-*-s0.json"))) == 1


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


def test_cli_scg_multilinear_on_unit_simplex_runs(tmp_path, capsys):
    # a simplex of scale 1 lies in [0, 1]^d, so the pairing rule admits it
    args = ["solve", "--config", _write(tmp_path, SUBMAX_INI), "--out", str(tmp_path / "r")]
    for ov in ["solver.algorithm=scg", "constraint.kind=simplex", "constraint.scale=1",
               "solver.mode=convex_min"]:
        args += ["--override", ov]
    assert main(args) == 0
    capsys.readouterr()


def test_cli_grad_diff_multilinear_box_runs(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["solve", "--config", _write(tmp_path, SUBMAX_INI),
                 "--out", str(out), "--override", "constraint.kind=box",
                 "--override", "solver.option=grad_diff"]) == 0
    capsys.readouterr()
    assert len(list(out.glob("sub-*-s0.csv"))) == 1


def test_cli_dr_ascent_on_box_leaves_the_origin(tmp_path, capsys, monkeypatch):
    # At x = 0 every draw is the empty set, so the first estimates are all
    # zero; the box breaks those argmax ties at its upper bound.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "r"
    args = ["submax", "--config", "scripts/configs/submax_facility.ini", "--out", str(out)]
    for ov in ["constraint.kind=box", "constraint.upper=0.6", "solver.option=grad_diff",
               "solver.t=200"]:
        args += ["--override", ov]
    assert main(args) == 0
    capsys.readouterr()
    rows = json.loads(next(out.glob("*-report.json")).read_text())["rows"]
    assert len(rows) == 10 and all(r["final_objective"] > 0 for r in rows)


_LOGISTIC_BLOCKS = ("kind = logistic_csv\n", "kind = l1ball\n")
_LRMR_BLOCKS = ("kind = lrmr_csv\nrows = 2\ncols = 2\n",
                "kind = nuclear\nrows = 2\ncols = 2\n")
#: data file -> (problem and constraint blocks, its rows, the refusal)
_BAD_DATA = {
    "nan": (_LOGISTIC_BLOCKS, "1,0.5,nan\n-1,0.25,0.75\n1,-0.5,0.1\n-1,1.0,0.2\n",
            "non-finite values in feature matrix"),
    "inf": (_LOGISTIC_BLOCKS, "1,0.5,inf\n-1,0.25,0.75\n1,-0.5,0.1\n-1,1.0,0.2\n",
            "non-finite values in feature matrix"),
    "lrmr-nan-rating": (_LRMR_BLOCKS, "0,0,1.0\n1,1,nan\n0,1,-0.5\n",
                        "non-finite values in observations"),
    "lrmr-fractional-index": (_LRMR_BLOCKS, "0,0,1.0\n1.7,0,2.0\n0,1,-0.5\n",
                              "observation indices must be integers"),
    # each flat index i·cols + j lies in 0..3: once read as entries (1, 1)
    # and (1, 0)
    "lrmr-column-index": (_LRMR_BLOCKS, "0,0,1.0\n0,3,2.0\n0,1,-0.5\n",
                          "observation column index outside 0..1"),
    "lrmr-row-index": (_LRMR_BLOCKS, "0,0,1.0\n2,-2,2.0\n0,1,-0.5\n",
                       "observation row index outside 0..1"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_DATA))
def test_cli_non_finite_features_exit_2(tmp_path, capsys, bad):
    (problem, constraint), rows, refusal = _BAD_DATA[bad]
    data = tmp_path / "data.csv"
    data.write_text(rows)
    ini = (f"[problem]\n{problem}path = {data}\n[constraint]\n{constraint}"
           "[solver]\nalgorithm = oblivious_sfw\nt = 5\n")
    out = tmp_path / "r"
    assert main(["solve", "--config", _write(tmp_path, ini), "--seeds", "0..2",
                 "--out", str(out)]) == 2
    assert f"config error: bad problem block: {refusal}" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (tmp_path / "r").exists()  # refused at load, before any write


def test_cli_modular_dim_other_than_weights_exit_2(tmp_path, capsys):
    # dim 3 and dim 7 once ran the same 10 weights, trace for trace
    out = tmp_path / "r"
    assert main(["submax", "--config", _write(tmp_path, SUBMAX_INI), "--out", str(out),
                 "--override", "problem.weights=" + " ".join(["1"] * 10),
                 "--override", "problem.dim=3"]) == 2
    assert ("config error: bad problem block: problem.dim=3 is not the number of "
            "problem.weights (10)") in capsys.readouterr().err
    assert not out.exists()


def test_modular_weights_need_no_dim():
    p, f = build_problem({"kind": "multilinear_modular", "weights": "1 2 3"})
    assert p.dim == 3 and isinstance(f, Modular)


@pytest.mark.parametrize("ini", sorted((ROOT / "scripts" / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_loads_and_builds(ini, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)  # configs name their data files from the repo root
    cfg = load_config(ini.relative_to(ROOT))
    problem, _ = build_problem(cfg.problem)
    build_constraint(cfg.constraint, problem.dim)
    section = "solver" if cfg.distsim is None else "distsim"
    assert main(["solve" if cfg.distsim is None else "distsim",
                 "--config", str(ini.relative_to(ROOT)), "--seed", "0",
                 "--out", str(tmp_path / "r"), "--override", f"{section}.t=3"]) == 0
    capsys.readouterr()
    assert len(list((tmp_path / "r").glob("*-s0.csv"))) == 1


_CONFIGS = "scripts/configs/"


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique checks its input with np.ma.is_masked, which imports
    # numpy.ma, and np.quantile calls np.unique.  One fresh process runs
    # every command; t = 100 > 64 takes the geometric log points.
    runs = [
        ["solve", "--config", _CONFIGS + "quadratic.ini", "--seeds", "0..2",
         "--override", "solver.t=100"],
        ["submax", "--config", _CONFIGS + "submax_facility.ini", "--seed", "0",
         "--override", "solver.t=5"],
        ["bcg", "--config", _CONFIGS + "bcg_coverage.ini", "--seeds", "0..1",
         "--override", "solver.t=3"],
        ["dbg", "--config", _CONFIGS + "submax_facility.ini", "--seed", "0",
         "--override", "solver.t=3"],
        ["distsim", "--config", _CONFIGS + "distsim_logistic.ini",
         "--override", "distsim.t=3"],
        ["oracle", "--config", _CONFIGS + "submax_facility.ini"],
    ]
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    runs.append(["report", "--out", str(tmp_path / "solve")])
    code = ("import json, sys\n"
            "from fwlab.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "sys.exit(f'exit codes {codes}' if any(codes) else\n"
            "         'a run imported numpy.ma' if 'numpy.ma' in sys.modules else 0)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# --- the config table -------------------------------------------------------

# Every key of the table with a value its entries admit.  A run reads only
# the keys of the kinds and the algorithm it selects; load_config checks the
# others as well.
EVERY_KEY = {
    "experiment": {"name": "every", "seeds": "0", "out": "unused"},
    "problem": {"kind": "multilinear_modular", "dim": "4", "weights": "1 5 2 4",
                "noise": "0.5", "instance_seed": "3", "path": "data.csv",
                "rows": "2", "cols": "2", "sigma": "1.0", "n_clients": "3",
                "n_topics": "3", "n_users": "3"},
    "constraint": {"kind": "matroid", "blocks": "0 1 | 2 3", "budgets": "1 1",
                   "radius": "1.0", "lower": "0", "upper": "1", "scale": "1.0",
                   "rows": "2", "cols": "2"},
    "solver": {"algorithm": "one_sfw", "mode": "dr_submodular_max",
               "option": "exact_hessian", "t": "5", "delta": "0.1",
               "batch": "2", "l": "2", "eta_c": "1.0", "eta_a": "0.5"},
    "distsim": {"setting": "finite_convex", "m": "2", "t": "6",
                "mode": "quantized"},
}


def _table_entries():
    """(section, group, key, entry) for every entry of the table; group is
    the kind or algorithm the entry belongs to, None for a common key."""
    for section, groups in bench._TABLE.items():
        for group, keys in groups.items():
            for key, entry in keys.items():
                yield section, group, key, entry


def _refused_values(entry):
    """Texts the entry refuses: one that does not parse, one past each end
    of its range and an empty one, or one outside its choices."""
    values = [] if entry.parse in (str, str.lower, Path) else ["x"]
    allowed = entry.allowed
    if isinstance(allowed, tuple):
        values.append("bogus")
    elif isinstance(allowed, Interval):
        values.append("")
        values.append(repr(allowed.lo if allowed.ends[0] == "(" else allowed.lo - 1))
        values.append(repr(allowed.hi if allowed.ends[1] == ")" else allowed.hi + 1))
    return values


def _table_config(section, group):
    """EVERY_KEY with ``group`` selected in ``section``, as a [distsim]
    config when ``section`` is distsim and a [solver] one otherwise."""
    cfg = {s: dict(keys) for s, keys in EVERY_KEY.items()}
    if section == "distsim":
        del cfg["solver"]
        cfg["problem"]["kind"] = "logistic_csv"
    else:
        del cfg["distsim"]
    if group is not None:
        cfg[section][bench._SELECTORS[section]] = group
    if section == "constraint" and group in ("l1ball", "nuclear"):
        # one_sfw samples a multilinear problem only inside [0, 1]^d
        cfg["problem"]["kind"] = "quadratic"
    if section == "constraint" and group == "simplex":
        # DR maximization starts at 0, which a simplex never holds
        cfg["solver"]["mode"] = "convex_min"
    algo = cfg.get("solver", {}).get("algorithm")
    if algo in ("deterministic_fw", "bcg", "dbg"):
        # they take no step schedule, and deterministic_fw only minimizes
        del cfg["solver"]["eta_c"], cfg["solver"]["eta_a"]
        if algo == "deterministic_fw":
            cfg["solver"]["mode"] = "convex_min"
    return cfg


def _write_table_config(tmp_path, cfg):
    path = tmp_path / "cfg.ini"
    path.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for s, keys in cfg.items()))
    return str(path)


def _refused_at_load(tmp_path, cfg):
    """The config is refused by load_config itself, and the CLI exits 2."""
    path = _write_table_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        load_config(path)
    return main(["distsim" if "distsim" in cfg else "solve",
                 "--config", path, "--out", str(tmp_path / "r")]) == 2


def test_table_every_key_has_an_entry_and_a_value():
    keys = {(s, k) for s, _, k, _ in _table_entries()}
    assert keys == {(s, k) for s, block in EVERY_KEY.items() for k in block}
    # Free text: nothing to refuse.  A new key lands here unless it has a
    # parser that can fail or a set of allowed values.
    assert {f"{s}.{k}" for s, _, k, e in _table_entries()
            if not _refused_values(e)} == {"experiment.name", "experiment.out",
                                          "problem.path"}


@pytest.mark.parametrize("section, group", sorted(
    {(s, g) for s, g, _, _ in _table_entries()}, key=str))
def test_table_config_loads(tmp_path, section, group):
    # the base of the refusals below is itself admitted
    load_config(_write_table_config(tmp_path, _table_config(section, group)))


@pytest.mark.parametrize("section, group, key, value", [
    (s, g, k, v) for s, g, k, e in _table_entries() for v in _refused_values(e)
], ids=str)
def test_table_refuses_value_at_load(tmp_path, capsys, section, group, key, value):
    cfg = _table_config(section, group)
    cfg[section][key] = value
    assert _refused_at_load(tmp_path, cfg)
    assert f"{section}.{key}={value!r} is not" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran


@pytest.mark.parametrize("section, group, key, unless", [
    (s, g, k, e.unless) for s, g, k, e in _table_entries()
    if e.default is bench._REQUIRED
], ids=str)
def test_table_refuses_missing_required_key_at_load(tmp_path, capsys, section,
                                                    group, key, unless):
    cfg = _table_config(section, group)
    del cfg[section][key]
    cfg[section].pop(unless, None)  # the key that would stand in for it
    assert _refused_at_load(tmp_path, cfg)
    assert f"{section}.{key} is required" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # nothing ran
