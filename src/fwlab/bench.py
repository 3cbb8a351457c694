"""Experiment orchestration: config parsing, per-seed runs, trace and
report emission, and the brute-force oracle used by the acceptance checks.

Configs are INI files with sections [experiment], [problem], [constraint],
and [solver] or [distsim].  ``_TABLE`` holds each key a run reads, with its
parser, default and allowed values, per problem or constraint kind and per
algorithm; :func:`load_config` checks a config by it and runs read by it.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import constraints as C
from . import problems as P
from .distsim import MODES, SETTINGS, run_qfw, schedule_from_theorem
from .rng import NumericsError, RngStream
from .solvers import (
    ONE_SFW_OPTIONS,
    Schedule,
    SolveTrace,
    bcg,
    dbg,
    deterministic_fw,
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

TRACE_HEADER = ["t", "objective", "fw_gap", "est_error", "oracle_calls",
                "cum_bits", "wall_ms"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


class Interval:
    """Numbers from ``lo`` to ``hi``, each end closed ("[", "]") or open
    ("(", ")") as ``ends`` says; a list or array lies in it if it has
    entries and all of them do."""

    def __init__(self, lo: float, hi: float = math.inf, ends: str = "[)"):
        self.lo, self.hi, self.ends = lo, hi, ends

    def __contains__(self, value):
        v = np.asarray(value, dtype=float)
        above = v >= self.lo if self.ends[0] == "[" else v > self.lo
        below = v <= self.hi if self.ends[1] == "]" else v < self.hi
        return v.size > 0 and bool(np.all(above & below))

    def __str__(self):
        return f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"


_REQUIRED, _DIM = object(), object()  # defaults: must be given; the problem's dim


class Key(NamedTuple):
    """How a run reads one config key: ``parse`` turns its text into a value
    that must lie in ``allowed`` (a tuple of choices, an Interval, or None);
    an absent key reads as ``default``, or as None while ``unless`` is given."""
    parse: object
    default: object = _REQUIRED
    allowed: object = None
    unless: str | None = None


def _ints(text):
    return [int(v) for v in text.replace(",", " ").split()]


def _floats(text):
    return np.array([float(v) for v in text.replace(",", " ").split()])


def _seeds(text):
    a, dots, b = text.partition("..")
    return list(range(int(a), int(b) + 1)) if dots else _ints(text)


def _blocks(text):
    return [_ints(part) for part in text.split("|")]


_COUNT, _NONNEGATIVE = Interval(1), Interval(0)  # ints >= 1; finite and >= 0
_POSITIVE, _FINITE = Interval(0, ends="()"), Interval(-math.inf, ends="()")
_HALF = Interval(0, 0.5, "()")  # radii that keep probes inside [0, 1]^d
_SIZE = Key(int, allowed=_COUNT)
_NOISE = Key(float, 0.0, _NONNEGATIVE)
_SEEDED = {"dim": _SIZE, "instance_seed": Key(int, 0)}  # instances drawn from a seed

_PROBLEM_KINDS = {
    "quadratic": {"dim": _SIZE, "noise": _NOISE},
    "nqp": {**_SEEDED, "noise": _NOISE},
    "logistic_csv": {"path": Key(str)},
    "lrmr_csv": {"path": Key(str), "rows": _SIZE, "cols": _SIZE,
                 "sigma": Key(float, 1.0, _POSITIVE)},
    "multilinear_facility": {**_SEEDED, "n_clients": Key(int, 5, _COUNT)},
    "multilinear_coverage": {**_SEEDED, "n_topics": Key(int, 6, _COUNT)},
    "multilinear_concave_modular": {**_SEEDED, "n_users": Key(int, 4, _COUNT)},
    "multilinear_logdet": _SEEDED,
    "multilinear_modular": {**_SEEDED, "dim": Key(int, allowed=_COUNT, unless="weights"),
                            "weights": Key(_floats, None, _FINITE)},
}
_CONSTRAINT_KINDS = {
    "l1ball": {"radius": Key(float, 1.0, _POSITIVE)},
    "box": {"lower": Key(_floats, np.zeros(1), _FINITE),
            "upper": Key(_floats, np.ones(1), _FINITE)},
    "simplex": {"scale": Key(float, 1.0, _POSITIVE)},
    "matroid": {"blocks": Key(_blocks), "budgets": Key(_ints, allowed=_NONNEGATIVE)},
    "nuclear": {"radius": Key(float, 1.0, _POSITIVE), "rows": _SIZE, "cols": _SIZE},
}
_ALGORITHMS = {
    "one_sfw": {"option": Key(str, "exact_hessian", ONE_SFW_OPTIONS)},
    "oblivious_sfw": {}, "scg": {}, "deterministic_fw": {},
    "bcg": {"delta": Key(float, 0.02, _HALF), "batch": Key(int, _DIM, _COUNT)},
    "dbg": {"delta": Key(float, 0.05, _HALF), "batch": Key(int, 1, _COUNT),
            "l": Key(int, 20, _COUNT)},
}
# Per section, the keys a run reads by group: group None under every config,
# the others under the value of the section's selector key.
_SELECTORS = {"problem": "kind", "constraint": "kind", "solver": "algorithm"}
_TABLE = {
    "experiment": {None: {"name": Key(str, None),  # None: the config file's stem
                          "seeds": Key(_seeds, [0], _FINITE),
                          "out": Key(Path, Path("runs"))}},
    "problem": {None: {"kind": Key(str.lower, allowed=tuple(_PROBLEM_KINDS))},
                **_PROBLEM_KINDS},
    "constraint": {None: {"kind": Key(str.lower, allowed=tuple(_CONSTRAINT_KINDS))},
                   **_CONSTRAINT_KINDS},
    "solver": {None: {"algorithm": Key(str.lower, "one_sfw", tuple(_ALGORITHMS)),
                      "mode": Key(str, "convex_min", Schedule.MODES),
                      "t": Key(int, 100, _COUNT),
                      "eta_c": Key(float, None, _POSITIVE),
                      "eta_a": Key(float, 1.0, _NONNEGATIVE)},
               **_ALGORITHMS},
    "distsim": {None: {"setting": Key(str, "finite_convex", SETTINGS),
                       "m": Key(int, 1, _COUNT), "t": Key(int, 64, _COUNT),
                       "mode": Key(str, "quantized", MODES)}},
}


def _read(section: str, block: dict, key: str, dim=None):
    """``section.key`` of the text ``block``, parsed and checked by its entry
    in the group ``block`` selects (a key only other groups read, by the
    first of their entries); ``dim`` stands for a default of _DIM.  Raises
    ValueError on a value the entry refuses or an absent required key."""
    groups = _TABLE[section]
    entry = groups[None].get(key) or (
        groups[_read(section, block, _SELECTORS[section])].get(key)
        or next(g[key] for g in groups.values() if key in g))
    if key not in block:
        if entry.unless in block:
            return None
        if entry.default is _REQUIRED:
            raise ValueError(f"{section}.{key} is required")
        return dim if entry.default is _DIM else entry.default
    text, allowed = block[key], entry.allowed
    try:
        value = entry.parse(text)
        ok = allowed is None or value in allowed
    except ValueError:
        ok = False
    if not ok:
        what = ("one of " + ", ".join(allowed) if isinstance(allowed, tuple)
                else f"{entry.parse.__name__.lstrip('_')} {allowed or ''}")
        raise ValueError(f"{section}.{key}={text!r} is not {what}".rstrip())
    return value


def _values(section: str, block: dict, dim=None) -> dict:
    """Every key a run of ``block`` reads, by name, as :func:`_read` reads it."""
    groups, selector = _TABLE[section], _SELECTORS.get(section)
    selected = groups[_read(section, block, selector)] if selector else {}
    return {key: _read(section, block, key, dim) for key in [*groups[None], *selected]}


def _check_pairings(cfg: RunConfig):
    """The rules that join keys of different sections (ValueError)."""
    kind = _read("problem", cfg.problem, "kind")
    constraint = _read("constraint", cfg.constraint, "kind")
    # A [distsim] config has an empty [solver], whose defaults break no rule.
    algo = _read("solver", cfg.solver, "algorithm")
    mode = _read("solver", cfg.solver, "mode")
    multilinear = kind.startswith("multilinear_")
    enumerated = 0  # the dimension of a multilinear problem evaluated exactly
    if multilinear and algo != "dbg":  # dbg only samples f
        weights = (_read("problem", cfg.problem, "weights")
                   if kind == "multilinear_modular" else None)
        enumerated = (len(weights) if weights is not None
                      else _read("problem", cfg.problem, "dim"))
    budgets = sizes = ()
    if constraint == "matroid":
        budgets = _read("constraint", cfg.constraint, "budgets")
        sizes = [len(b) for b in _read("constraint", cfg.constraint, "blocks")]
    zero = any(b == 0 < n for b, n in zip(budgets, sizes))
    in_unit_box = constraint == "matroid"
    # l1 balls, matroids and nuclear balls hold 0, and a simplex never does
    holds_origin = constraint != "simplex"
    if constraint == "box":
        lower = _read("constraint", cfg.constraint, "lower")
        upper = _read("constraint", cfg.constraint, "upper")
        in_unit_box = bool(lower.min() >= 0 and upper.max() <= 1)
        holds_origin = bool(lower.max() <= 0 <= upper.min())
    elif constraint == "simplex":
        in_unit_box = _read("constraint", cfg.constraint, "scale") <= 1
    matrix = ball = ""  # an lrmr_csv problem's rows x cols, and its nuclear ball's
    if kind == "lrmr_csv" and constraint == "nuclear":
        matrix, ball = (f"{_read(s, b, 'rows')}x{_read(s, b, 'cols')}" for s, b in
                        (("problem", cfg.problem), ("constraint", cfg.constraint)))
    capped = False
    if algo == "dbg":
        # shrink_translate's arithmetic, where every upper bound of the
        # shrunk set is 1 - delta - delta
        delta = _read("solver", cfg.solver, "delta")
        shrunk = 1.0 - delta - delta
        capped = any(C.shrunk_cap(b, np.full(n, shrunk), delta)[1]
                     for b, n in zip(budgets, sizes))
    box_lo = box_hi = 0.0  # bcg's shrunk box: its largest lower, smallest upper bound
    if algo == "bcg" and constraint == "box":
        # shrink_translate's arithmetic: the box becomes
        # [max(lower - delta, 0), min(upper, 1 - delta) - delta]
        delta = _read("solver", cfg.solver, "delta")
        box_lo = max(float(lower.max()) - delta, 0.0)
        box_hi = min(float(upper.min()), 1.0 - delta) - delta
    for broken, why in [
        (cfg.distsim is not None and kind != "logistic_csv",
         "distsim drives logistic_csv problems only"),
        # The exact multilinear oracles tabulate f on all 2^d subsets.
        (enumerated > P.ENUM_MAX_D,
         f"{algo} evaluates the multilinear extension exactly, over all 2^d "
         f"subsets: d={enumerated} exceeds the enumeration budget {P.ENUM_MAX_D} "
         "(dbg, which only samples f, takes any d)"),
        # deterministic_fw steps toward lmo_min; it reads no mode.
        (algo == "deterministic_fw" and mode == "dr_submodular_max",
         "deterministic_fw minimizes: it cannot run solver.mode=dr_submodular_max"),
        *((algo in ("deterministic_fw", "bcg", "dbg") and key in cfg.solver,
           f"solver.{key} sets the step schedule of one_sfw, oblivious_sfw and "
           f"scg; {algo} does not read it") for key in ("eta_c", "eta_a")),
        # build_constraint compares rows·cols only, which a transpose matches
        (matrix != ball, f"an lrmr_csv problem of {matrix} matrices on a nuclear "
                         f"ball of {ball} matrices"),
        (algo == "oblivious_sfw" and multilinear,
         "oblivious_sfw needs an oblivious problem, not a multilinear one"),
        (algo in ("bcg", "dbg") and not multilinear,
         f"{algo} needs a multilinear problem"),
        # bcg shrinks the constraint inside the unit box (shrink_translate).
        (algo == "bcg" and constraint not in ("box", "matroid"),
         "bcg needs a box or matroid constraint"),
        (algo == "dbg" and constraint != "matroid", "dbg needs a matroid constraint"),
        # bcg and dbg always maximize; they read no mode either.
        (algo in ("bcg", "dbg") and "mode" in cfg.solver
         and mode != "dr_submodular_max",
         f"{algo} maximizes: it cannot run solver.mode={mode}; set "
         "dr_submodular_max or leave solver.mode unset"),
        # The shrunk set K' leaves no room in a block with a zero budget, and
        # pipage rounding needs block sums equal to the budgets, which a
        # budget above |block|(1 - delta) misses: its shrunk cap is the
        # block's box mass, 1 - 2 delta per coordinate.
        (algo == "bcg" and zero, "bcg needs every matroid budget >= 1"),
        # bcg starts at 0 of the shrunk box.  With 0 in it, every coordinate
        # starts at 0, so box_hi < 0 empties it.
        (box_lo > 0, "bcg starts at 0 of the box shrunk by solver.delta, which "
                     "needs every lower bound <= solver.delta"),
        (box_hi < box_lo - C.MEMBERSHIP_TOL,
         "bcg needs every upper bound >= solver.delta: the box shrunk by "
         "solver.delta is empty"),
        (algo == "dbg" and zero and any(budgets),
         "dbg needs every matroid budget >= 1, or all of them 0"),
        (capped, "dbg needs every matroid budget below its block size by at least "
                 "|block|·solver.delta"),
        # grad_diff's radius needs constants (B, G, L, L2); only a multilinear
        # problem derives them, from a box (MultilinearProblem.domain_constants).
        (algo == "one_sfw" and _read("solver", cfg.solver, "option") == "grad_diff"
         and not (multilinear and constraint == "box"),
         "solver.option=grad_diff needs a multilinear problem on a box constraint"),
        # A multilinear problem samples z ~ p(.; x) at the iterates, a law
        # defined for x in [0, 1]^d only.
        (algo in ("one_sfw", "scg") and multilinear and not in_unit_box,
         f"{algo} on a multilinear problem needs a matroid, a box within "
         "[0, 1] or a simplex of scale <= 1"),
        # The momentum solvers start DR maximization at 0 (bcg and dbg
        # maximize under any admitted mode text).
        (algo in ("one_sfw", "oblivious_sfw", "scg")
         and mode == "dr_submodular_max" and not holds_origin,
         f"{algo} under solver.mode=dr_submodular_max starts at 0, which the "
         "constraint must hold (a box needs lower <= 0 <= upper; a simplex "
         "never holds 0)"),
    ]:
        if broken:
            raise ValueError(why)


@dataclass
class RunConfig:
    """A loaded config.  Its sections keep the config's text, the record of
    what ran (hashed by :meth:`digest`, copied into sidecars); runs read
    values from them through the table."""
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


def load_config(path, overrides=(), out_dir=None, seeds=None) -> RunConfig:
    """Read a config, apply overrides, and check each key a run of it reads
    and each rule across sections: a config that loads fails only on data."""
    cp = configparser.ConfigParser()
    if not cp.read(str(path)):
        raise ConfigError(f"config file not found: {path}")
    for ov in overrides:
        key, eq, value = ov.partition("=")
        section, dot, k = key.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), k.strip(), value.strip())

    for section in cp.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if not any(key in group for group in _TABLE[section].values()):
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if cp.has_section("solver") == cp.has_section("distsim"):
        raise ConfigError("a config needs exactly one of [solver] and [distsim]: "
                          "a [distsim] config runs the simulator, which reads "
                          "no [solver]")
    text = {s: dict(cp[s]) if cp.has_section(s) else {} for s in _TABLE}
    distsim = cp.has_section("distsim")
    try:
        for section in ("problem", "constraint", "distsim" if distsim else "solver"):
            _values(section, text[section])  # the keys a run reads, required ones too
            for key in text[section]:        # and the keys of other kinds or algorithms
                _read(section, text[section], key)
        exp = _values("experiment", text["experiment"])
        cfg = RunConfig(
            name=exp["name"] or Path(str(path)).stem,
            seeds=exp["seeds"] if seeds is None else seeds,
            out=exp["out"] if out_dir is None else Path(out_dir),
            problem=text["problem"], constraint=text["constraint"],
            solver=text["solver"], distsim=text["distsim"] if distsim else None)
        _check_pairings(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg


def build_constraint(block: dict, dim: int) -> C.FeasibleSet:
    """The constraint of ``block``, in the problem's dimension ``dim``."""
    try:
        v = _values("constraint", block)
        kind = v["kind"]
        if kind == "l1ball":
            set_ = C.L1Ball(v["radius"], dim)
        elif kind == "box":
            set_ = C.Box(*(np.full(dim, b[0]) if b.size == 1 else b
                           for b in (v["lower"], v["upper"])))
        elif kind == "simplex":
            set_ = C.Simplex(v["scale"], dim)
        elif kind == "matroid":
            set_ = C.PartitionMatroidPolytope(v["blocks"], v["budgets"], dim)
        else:  # nuclear
            set_ = C.NuclearNormBall(v["radius"], v["rows"], v["cols"])
    except (ValueError, NumericsError) as e:
        raise ConfigError(f"bad constraint block: {e}") from e
    if set_.dim != dim:
        raise ConfigError(f"bad constraint block: a {kind} constraint of dimension "
                          f"{set_.dim} for a problem of dimension {dim}")
    return set_


def build_problem(block: dict):
    """Returns (StochasticProblem, SetFunction or None)."""
    try:
        v = _values("problem", block)
        kind = v["kind"]
        if kind == "quadratic":
            return P.Quadratic(np.zeros(v["dim"]), v["noise"]), None
        if kind == "logistic_csv":
            return P.LogisticL1.from_csv(v["path"]), None
        if kind == "lrmr_csv":
            return P.RobustLRMR.from_csv(v["path"], v["rows"], v["cols"],
                                         v["sigma"]), None
        inst = RngStream(v["instance_seed"], 0x1857)
        if kind == "nqp":
            return P.NQP(v["dim"], inst, noise_sigma=v["noise"]), None
        if kind == "multilinear_facility":
            f = P.make_facility_location(v["dim"], v["n_clients"], inst)
        elif kind == "multilinear_coverage":
            f = P.make_coverage(v["dim"], v["n_topics"], inst)
        elif kind == "multilinear_concave_modular":
            f = P.make_concave_over_modular(v["dim"], v["n_users"], inst)
        elif kind == "multilinear_logdet":
            f = P.make_logdet(v["dim"], inst)
        else:  # multilinear_modular
            f = P.Modular(v["weights"] if v["weights"] is not None
                          else inst.uniform(0.0, 1.0, size=v["dim"]))
        return P.MultilinearProblem(f), f
    except (ValueError, NumericsError) as e:
        raise ConfigError(f"bad problem block: {e}") from e


def brute_force_opt(f: P.SetFunction, m: C.PartitionMatroid):
    """Exact max of f over all matroid bases by enumeration (guarded)."""
    if m.n_bases() > MAX_BASES:
        raise ValueError(f"base count {m.n_bases()} exceeds budget {MAX_BASES}")
    best, best_mask = -np.inf, None
    for mask in m.iter_bases():
        v = f(mask)
        if v > best:
            best, best_mask = v, mask
    return float(best), best_mask


def write_trace(path: Path, trace: SolveTrace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in trace.records:
            w.writerow([r.t,
                        "" if r.objective is None else repr(r.objective),
                        "" if r.fw_gap is None else repr(r.fw_gap),
                        "" if r.est_error is None else repr(r.est_error),
                        r.oracle_calls,
                        "" if r.cum_bits is None else r.cum_bits,
                        ""])  # wall_ms omitted: trace files are byte-reproducible


def _run_one_seed(cfg: RunConfig, problem, setf, set_, seed: int):
    """One seed's solver run on the problem, set function and set that
    every seed of the run shares."""
    rng = RngStream(seed, 0)
    if cfg.distsim is not None:  # load_config admits only logistic_csv here
        ds = _values("distsim", cfg.distsim)
        fs = P.FiniteSumProblem.from_logistic(problem)
        qcfg = schedule_from_theorem(ds["setting"], fs.n, ds["m"], problem.dim,
                                     T=ds["t"], mode=ds["mode"])
        trace, ledger = run_qfw(fs, set_, qcfg, ds["t"], rng)
        trace.meta["cum_bits"] = ledger.total
        return trace

    s = _values("solver", cfg.solver, dim=problem.dim)
    algo, T = s["algorithm"], s["t"]
    sched = Schedule.preset(s["mode"], T)
    if s["eta_c"] is not None:
        c, a = s["eta_c"], s["eta_a"]
        sched.eta_fn = lambda t: min(1.0, c / (t + 1.0) ** a)
    if algo == "one_sfw":
        return one_sfw(problem, set_, sched, s["option"], rng)
    if algo == "oblivious_sfw":
        return oblivious_sfw(problem, set_, sched, rng)
    if algo == "scg":
        return scg_baseline(problem, set_, sched, rng)
    if algo == "deterministic_fw":
        return deterministic_fw(problem.exact_grad, set_, T,
                                value_oracle=problem.exact_value)
    # bcg and dbg: load_config admits them only on a multilinear problem.
    if algo == "bcg":
        # clamps as np.clip(Y, 0, 1) does: a probe is never -0.0, the one
        # input where they differ, as bcg shifts it by delta > 0
        def value(Y):
            return P.multilinear_exact(setf, np.minimum(np.maximum(Y, 0.0), 1.0))

        out = bcg(value, set_, rng, T, s["delta"], s["batch"])
        return SolveTrace(output=out, meta={"objective": problem.exact_value(out)})
    members = dbg(setf, set_.matroid, T, s["delta"], s["l"], s["batch"], rng)
    return SolveTrace(output=members.astype(float),
                      meta={"objective": float(setf(members))})


def run_experiment(cfg: RunConfig) -> dict:
    """Build the problem and the constraint once, run every seed on them
    (isolated failures), write traces, return the report.

    A build error is a ConfigError, raised before the output directory is
    created, so it leaves nothing behind; so is a worker count that does
    not divide the rows of the simulator's data.
    """
    digest = cfg.digest()
    problem, setf = build_problem(cfg.problem)
    set_ = build_constraint(cfg.constraint, problem.dim)
    if cfg.distsim is not None:  # load_config admits only logistic_csv here
        m = _read("distsim", cfg.distsim, "m")
        if problem.n % m:
            raise ConfigError(f"distsim.m={m} does not divide the {problem.n} "
                              "rows of the problem's data")
    rows, failures = [], []
    for seed in cfg.seeds:
        tag = f"{cfg.name}-{digest}-s{seed}"
        t0 = time.perf_counter()
        try:
            trace = _run_one_seed(cfg, problem, setf, set_, seed)
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


def _quantile(arr: np.ndarray, q: float) -> float:
    """``np.quantile(arr, q)`` of a 1-d float array, to the bit: numpy's
    default linear rule, step by step as numpy 2 takes it.  np.quantile
    itself would import numpy.ma (through np.unique), which no run needs."""
    n = arr.size
    v = n * q + (1 + q * (1 - 1 - 1)) - 1  # the virtual index, alpha = beta = 1
    if v >= n - 1:  # clipped to the last element, with numpy's weight
        lo = hi = -1
        t = v + 1
    else:
        lo = math.floor(v)
        hi, t = lo + 1, v - lo
    part = arr.copy()
    # numpy's kth values: where ties of -0.0 and 0.0 land depends on them
    part.partition(np.array(sorted({0, -1, lo, hi})))
    if math.isnan(part[-1]):  # a NaN sorts last, and numpy returns it
        return float(part[-1])
    a, b = part[lo], part[hi]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _aggregate(rows, failures):
    objs = [r["final_objective"] for r in rows if r["final_objective"] is not None]
    agg = {}
    if objs:
        arr = np.array(objs, dtype=float)
        agg = {"mean": float(arr.mean()),
               "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
               "q25": _quantile(arr, 0.25),
               "q50": _quantile(arr, 0.50),
               "q75": _quantile(arr, 0.75)}
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
