"""Experiment orchestration: config parsing, per-seed runs, trace and
report emission, and the brute-force oracle used by the acceptance checks.

Configs are INI files with sections [experiment], [problem], [constraint],
[solver], and optionally [distsim].  The schema is strict: unknown
sections or keys are rejected before any compute.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import constraints as C
from . import problems as P
from .distsim import MODES, SETTINGS, run_qfw, schedule_from_theorem
from .rng import RngStream
from .solvers import (
    ONE_SFW_OPTIONS,
    Schedule,
    SolveTrace,
    bcg,
    dbg,
    deterministic_fw,
    fw_gap,
    oblivious_sfw,
    one_sfw,
    scg_baseline,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run_experiment",
    "brute_force_opt",
    "emit_report",
]

MAX_BASES = 10**6

_SCHEMA = {
    "experiment": {"name", "seeds", "out"},
    "problem": {
        "kind", "dim", "noise", "path", "rows", "cols", "sigma",
        "n_clients", "n_topics", "n_users", "instance_seed", "weights",
    },
    "constraint": {
        "kind", "radius", "lower", "upper", "scale", "blocks", "budgets",
        "rows", "cols",
    },
    "solver": {
        "algorithm", "mode", "option", "t", "delta", "batch", "l",
        "eta_c", "eta_a",
    },
    "distsim": {"setting", "m", "t", "mode"},
}

# The values of [distsim] keys a CLI run can execute.  stoch_convex is left
# out: its schedule needs constants (sigma, L, D) that no key supplies.
_DISTSIM_CHOICES = {
    "setting": tuple(s for s in SETTINGS if s != "stoch_convex"),
    "mode": MODES,
}

#: Values of ``solver.algorithm`` that :func:`_run_one_seed` dispatches on.
ALGORITHMS = ("one_sfw", "oblivious_sfw", "scg", "deterministic_fw", "bcg", "dbg")

# The values of [solver] keys, as the code that reads each key sees them.
_SOLVER_CHOICES = {
    "algorithm": (ALGORITHMS, str.lower),
    "mode": (Schedule.MODES, str),
    "option": (ONE_SFW_OPTIONS, str),
}

# Numeric keys: the parser a run reads each with, and the values it can use.
_NUMBERS = {
    "solver": {
        "t": (int, lambda v: v >= 1, ">= 1"),
        "batch": (int, lambda v: v >= 1, ">= 1"),
        "l": (int, lambda v: v >= 1, ">= 1"),
        "delta": (float, lambda v: 0 < v < math.inf, "> 0 and finite"),
        "eta_c": (float, lambda v: 0 < v < math.inf, "> 0 and finite"),
        "eta_a": (float, lambda v: 0 <= v < math.inf, ">= 0 and finite"),
    },
    "distsim": {
        "t": (int, lambda v: v >= 1, ">= 1"),
        "m": (int, lambda v: v >= 1, ">= 1"),
    },
}

TRACE_HEADER = ["t", "objective", "fw_gap", "est_error", "oracle_calls",
                "cum_bits", "wall_ms"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


@dataclass
class RunConfig:
    name: str
    seeds: list
    out: Path
    problem: dict
    constraint: dict
    solver: dict
    distsim: dict | None = None

    def digest(self) -> str:
        blob = json.dumps(
            {"problem": self.problem, "constraint": self.constraint,
             "solver": self.solver, "distsim": self.distsim},
            sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_seeds(text: str) -> list:
    text = text.strip()
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.replace(",", " ").split()]


def load_config(path, overrides=(), out_dir=None, seeds=None) -> RunConfig:
    cp = configparser.ConfigParser()
    read = cp.read(str(path))
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        key, value = ov.split("=", 1)
        section, k = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), k.strip(), value.strip())

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")
    if not cp.has_section("problem"):
        raise ConfigError("missing section [problem]")
    if not cp.has_section("solver") and not cp.has_section("distsim"):
        raise ConfigError("missing section [solver] (or [distsim])")

    exp = dict(cp["experiment"]) if cp.has_section("experiment") else {}
    cfg = RunConfig(
        name=exp.get("name", Path(str(path)).stem),
        seeds=seeds if seeds is not None else _parse_seeds(exp.get("seeds", "0")),
        out=Path(out_dir if out_dir is not None else exp.get("out", "runs")),
        problem=dict(cp["problem"]) if cp.has_section("problem") else {},
        constraint=dict(cp["constraint"]) if cp.has_section("constraint") else {},
        solver=dict(cp["solver"]) if cp.has_section("solver") else {},
        distsim=dict(cp["distsim"]) if cp.has_section("distsim") else None,
    )
    if not cfg.seeds:
        raise ConfigError("seeds list is empty")
    for section, keys in _NUMBERS.items():
        block = getattr(cfg, section) or {}
        for key, (parse, check, allowed) in keys.items():
            if key not in block:
                continue
            try:
                ok = check(parse(block[key]))
            except ValueError:
                ok = False
            if not ok:
                raise ConfigError(f"{section}.{key}={block[key]!r} is not "
                                  f"{parse.__name__} {allowed}")
    for key, allowed in _DISTSIM_CHOICES.items():
        value = (cfg.distsim or {}).get(key)
        if value is not None and value not in allowed:
            raise ConfigError(
                f"distsim.{key}={value!r} is not one of {', '.join(allowed)}")
    for key, (allowed, norm) in _SOLVER_CHOICES.items():
        value = cfg.solver.get(key)
        if value is not None and norm(value) not in allowed:
            raise ConfigError(
                f"solver.{key}={value!r} is not one of {', '.join(allowed)}")
    # grad_diff's radius needs constants (B, G, L, L2); only a multilinear
    # problem on a box supplies them (MultilinearProblem.domain_constants).
    if (cfg.distsim is None
            and cfg.solver.get("algorithm", "one_sfw").lower() == "one_sfw"
            and cfg.solver.get("option") == "grad_diff"
            and not (cfg.problem.get("kind", "").lower().startswith("multilinear_")
                     and cfg.constraint.get("kind", "").lower() == "box")):
        raise ConfigError("solver.option=grad_diff needs a multilinear problem "
                          "on a box constraint")
    return cfg


def _floats(text):
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _parse_blocks(text):
    return [[int(i) for i in part.split()] for part in text.split("|")]


def build_constraint(block: dict, dim: int) -> C.FeasibleSet:
    kind = block.get("kind", "").lower()
    try:
        if kind == "l1ball":
            return C.L1Ball(float(block.get("radius", 1.0)), dim)
        if kind == "box":
            lo = _floats(block["lower"]) if "lower" in block else np.zeros(dim)
            hi = _floats(block["upper"]) if "upper" in block else np.ones(dim)
            if lo.size == 1:
                lo = np.full(dim, lo[0])
            if hi.size == 1:
                hi = np.full(dim, hi[0])
            return C.Box(lo, hi)
        if kind == "simplex":
            return C.Simplex(float(block.get("scale", 1.0)), dim)
        if kind == "matroid":
            return C.PartitionMatroidPolytope(
                _parse_blocks(block["blocks"]),
                [int(b) for b in block["budgets"].replace(",", " ").split()],
                dim)
        if kind == "nuclear":
            return C.NuclearNormBall(float(block.get("radius", 1.0)),
                                     int(block["rows"]), int(block["cols"]))
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad constraint block: {e}") from e
    raise ConfigError(f"unknown constraint kind {kind!r}")


def _dim(block: dict) -> int:
    """``problem.dim``, for the kinds whose instance size it sets."""
    dim = int(block.get("dim", 0))
    if dim < 1:
        raise ConfigError(f"problem kind {block.get('kind')!r} needs dim >= 1")
    return dim


def build_problem(block: dict):
    """Returns (StochasticProblem, SetFunction or None)."""
    kind = block.get("kind", "").lower()
    inst = RngStream(int(block.get("instance_seed", 0)), 0x1857)
    noise = float(block.get("noise", 0.0))
    try:
        if kind == "quadratic":
            return P.Quadratic(np.zeros(_dim(block)), noise), None
        if kind == "nqp":
            return P.NQP(_dim(block), inst, noise_sigma=noise), None
        if kind == "logistic_csv":
            return P.LogisticL1.from_csv(block["path"]), None
        if kind == "lrmr_csv":
            return P.RobustLRMR.from_csv(
                block["path"], int(block["rows"]), int(block["cols"]),
                float(block.get("sigma", 1.0))), None
        if kind.startswith("multilinear_"):
            sub = kind.removeprefix("multilinear_")
            if sub == "facility":
                f = P.make_facility_location(_dim(block),
                                             int(block.get("n_clients", 5)), inst)
            elif sub == "coverage":
                f = P.make_coverage(_dim(block), int(block.get("n_topics", 6)), inst)
            elif sub == "concave_modular":
                f = P.make_concave_over_modular(_dim(block),
                                                int(block.get("n_users", 4)), inst)
            elif sub == "logdet":
                f = P.make_logdet(_dim(block), inst)
            elif sub == "modular":
                w = (_floats(block["weights"]) if "weights" in block
                     else inst.uniform(0.0, 1.0, size=_dim(block)))
                f = P.Modular(w)
            else:
                raise ConfigError(f"unknown multilinear instance {sub!r}")
            return P.MultilinearProblem(f), f
    except (KeyError, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad problem block: {e}") from e
    raise ConfigError(f"unknown problem kind {kind!r}")


def brute_force_opt(f: P.SetFunction, m: C.PartitionMatroid):
    """Exact max of f over all matroid bases by enumeration (guarded)."""
    if m.n_bases() > MAX_BASES:
        raise ValueError(f"base count {m.n_bases()} exceeds budget {MAX_BASES}")
    best, best_mask = -np.inf, None
    for mask in m.iter_bases():
        v = f(mask)
        if v > best:
            best, best_mask = v, mask
    if best_mask is None:  # no base at all only if ground set empty
        return f(np.zeros(m.ground_size, dtype=bool)), np.zeros(
            m.ground_size, dtype=bool)
    return float(best), best_mask


def _custom_schedule(mode, T, c, a):
    sched = Schedule.preset(mode, T)
    sched.eta_fn = lambda t: min(1.0, c / (t + 1.0) ** a)
    return sched


def write_trace(path: Path, trace: SolveTrace, extra_header=()):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER + list(extra_header))
        for r in trace.records:
            row = [r.t,
                   "" if r.objective is None else repr(r.objective),
                   "" if r.fw_gap is None else repr(r.fw_gap),
                   "" if r.est_error is None else repr(r.est_error),
                   r.oracle_calls,
                   "" if r.cum_bits is None else r.cum_bits,
                   ""]  # wall_ms omitted: trace files are byte-reproducible
            for key in extra_header:
                row.append(trace.meta.get(key, ""))
            w.writerow(row)


def _run_one_seed(cfg: RunConfig, seed: int):
    solver = cfg.solver
    algo = solver.get("algorithm", "one_sfw").lower()
    rng = RngStream(seed, 0)
    problem, setf = (None, None)
    if cfg.problem:
        problem, setf = build_problem(cfg.problem)

    if cfg.distsim is not None:
        ds = cfg.distsim
        if problem is None or not isinstance(problem, P.LogisticL1):
            raise ConfigError("distsim currently drives logistic_csv problems")
        fs = P.FiniteSumProblem.from_logistic(problem)
        set_ = build_constraint(cfg.constraint, problem.dim)
        T = int(ds.get("t", 64))
        qcfg = schedule_from_theorem(
            ds.get("setting", "finite_convex"), fs.n, int(ds.get("m", 1)),
            problem.dim, T=T, mode=ds.get("mode", "quantized"))
        trace, ledger = run_qfw(fs, set_, qcfg, T, rng)
        trace.meta["cum_bits"] = ledger.total
        return trace

    set_ = build_constraint(cfg.constraint, problem.dim)
    T = int(solver.get("t", 100))
    mode = solver.get("mode", "convex_min")
    if "eta_c" in solver:
        sched = _custom_schedule(mode, T,
                                 float(solver["eta_c"]),
                                 float(solver.get("eta_a", 1.0)))
    else:
        sched = Schedule.preset(mode, T)

    if algo == "one_sfw":
        option = solver.get("option", "exact_hessian")
        consts = None
        if option == "grad_diff":  # load_config admits only multilinear on a box
            lo, hi = float(np.min(set_.lower)), float(np.max(set_.upper))
            consts = problem.domain_constants(max(lo - 1e-2, 1e-3),
                                              min(hi + 1e-2, 1 - 1e-3))
        return one_sfw(problem, set_, sched, option, rng, constants=consts,
                       probe_clip=(0.0, 1.0) if problem.mode == "nonoblivious" else None)
    if algo == "oblivious_sfw":
        return oblivious_sfw(problem, set_, sched, rng)
    if algo == "scg":
        return scg_baseline(problem, set_, sched, rng)
    if algo == "deterministic_fw":
        return deterministic_fw(problem.exact_grad, set_, T,
                                value_oracle=problem.exact_value)
    if algo == "bcg":
        if setf is None:
            raise ConfigError("bcg needs a multilinear problem block")
        delta = float(solver.get("delta", 0.02))
        box = C.Box.unit(problem.dim)
        out = bcg(lambda Y: P.multilinear_exact(setf, np.clip(Y, 0, 1)),
                  set_, box, T, delta, int(solver.get("batch", problem.dim)),
                  rng)
        trace = SolveTrace(output=out, meta={"objective": problem.exact_value(out)})
        return trace
    if algo == "dbg":
        if setf is None or not isinstance(set_, C.PartitionMatroidPolytope):
            raise ConfigError("dbg needs a multilinear problem and matroid constraint")
        members = dbg(setf, set_.matroid, T, float(solver.get("delta", 0.05)),
                      int(solver.get("l", 20)), int(solver.get("batch", 1)), rng)
        trace = SolveTrace(output=members.astype(float),
                           meta={"objective": float(setf(members))})
        return trace
    raise ConfigError(f"unknown algorithm {algo!r}")


def run_experiment(cfg: RunConfig) -> dict:
    """Run every seed (isolated failures), write traces, return the report.

    The output directory is created just before the first file is written,
    so a configuration error raised by a seed leaves nothing behind.
    """
    digest = cfg.digest()
    rows, failures = [], []
    for seed in cfg.seeds:
        tag = f"{cfg.name}-{digest}-s{seed}"
        t0 = time.perf_counter()
        try:
            trace = _run_one_seed(cfg, seed)
        except ConfigError:
            raise
        except Exception as e:  # per-seed isolation
            failures.append({"seed": seed, "error": f"{type(e).__name__}: {e}"})
            continue
        wall = time.perf_counter() - t0
        cfg.out.mkdir(parents=True, exist_ok=True)
        write_trace(cfg.out / f"{tag}.csv", trace)
        final = trace.records[-1] if trace.records else None
        row = {
            "seed": seed,
            "final_objective": (trace.meta.get("objective")
                                if final is None else final.objective),
            "final_gap": None if final is None else final.fw_gap,
            "cum_bits": trace.meta.get("cum_bits",
                                       None if final is None else final.cum_bits),
            "wall_s": round(wall, 3),
        }
        rows.append(row)
        with open(cfg.out / f"{tag}.json", "w") as fh:
            json.dump({"seed": seed, "config_hash": digest, "name": cfg.name,
                       "solver": cfg.solver, "problem": cfg.problem,
                       "constraint": cfg.constraint, "distsim": cfg.distsim,
                       "output_rule": trace.output_rule,
                       "meta": {k: v for k, v in trace.meta.items()
                                if isinstance(v, (int, float, str))}},
                      fh, indent=2, default=str)
    report = _aggregate(rows, failures)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / f"{cfg.name}-{digest}-report.json", "w") as fh:
        json.dump(report, fh, indent=2, default=str)
    emit_report(rows, cfg.out / f"{cfg.name}-{digest}-report.csv")
    return report


def _aggregate(rows, failures):
    objs = [r["final_objective"] for r in rows if r["final_objective"] is not None]
    agg = {}
    if objs:
        arr = np.array(objs, dtype=float)
        agg = {"mean": float(arr.mean()),
               "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
               "q25": float(np.quantile(arr, 0.25)),
               "q50": float(np.quantile(arr, 0.50)),
               "q75": float(np.quantile(arr, 0.75))}
    return {"rows": rows, "failures": failures, "aggregate": agg,
            "n_ok": len(rows), "n_failed": len(failures)}


def emit_report(rows, path: Path):
    """Plot-ready columnar CSV: one row per seed plus a mean row."""
    if not rows:
        return
    keys = ["seed", "final_objective", "final_gap", "cum_bits", "wall_s"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for r in rows:
            w.writerow([("" if r[k] is None else r[k]) for k in keys])
        objs = [r["final_objective"] for r in rows
                if r["final_objective"] is not None]
        if objs:
            w.writerow(["mean", float(np.mean(objs)), "", "", ""])
