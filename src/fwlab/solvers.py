"""Projection-free optimization drivers.

All drivers share the skeleton: estimate a gradient, call the constraint
set's linear oracle, move toward (minimization: x + eta (v - x)) or along
(monotone maximization: x + eta v) the returned vertex.  The momentum
solvers and bcg run one loop; a one-sample step draws exactly one sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import Box, FeasibleSet, pipage_round, shrink_translate
from .estimators import (
    VariationEstimate,
    grad_diff_delta,
    momentum_update,
    two_point_gradient,
    variation_exact_hessian,
    variation_grad_diff,
    variation_oblivious,
)
from .problems import MultilinearProblem, StochasticProblem, sampled_value
from .rng import RngStream, check_finite, children_ahead

__all__ = [
    "Schedule",
    "IterationRecord",
    "SolveTrace",
    "fw_gap",
    "holds_origin",
    "random_iterate",
    "one_sfw",
    "oblivious_sfw",
    "scg_baseline",
    "deterministic_fw",
    "bcg",
    "dbg",
]

_OUTPUT_STREAM = 0xA11
_LOG_POINTS = 64

#: Variation estimators of :func:`one_sfw`.
ONE_SFW_OPTIONS = ("exact_hessian", "grad_diff")


@dataclass
class Schedule:
    """Step/momentum schedule for the momentum Frank-Wolfe family.

    Modes: ``convex_min`` (rho_t = 1/(t-1), eta_t = 1/t, last iterate),
    ``nonconvex_min`` (rho_t = (t-1)^{-2/3}, eta_t = T^{-2/3}, uniform
    random iterate), ``dr_submodular_max`` (rho_t = 1/(t-1), eta_t = 1/T,
    start at 0, additive update), each with rho_1 = 1: from d_0 = 0, d_1 = g_1.
    """

    T: int
    mode: str
    rho_fn: object
    eta_fn: object

    MODES = ("convex_min", "nonconvex_min", "dr_submodular_max")

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")

    @classmethod
    def preset(cls, mode: str, T: int) -> "Schedule":
        if mode not in cls.MODES:
            raise ValueError(f"unknown schedule mode {mode!r}")
        T = int(T)
        if mode == "convex_min":
            return cls(T, mode, lambda t: max(t - 1.0, 1.0) ** -1.0,
                       lambda t: 1.0 / t)
        if mode == "nonconvex_min":
            return cls(T, mode, lambda t: max(t - 1.0, 1.0) ** (-2.0 / 3.0),
                       lambda t: T ** (-2.0 / 3.0))
        return cls(T, mode, lambda t: max(t - 1.0, 1.0) ** -1.0, lambda t: 1.0 / T)

    def rho(self, t: int) -> float:
        r = float(self.rho_fn(t))
        if not 0.0 < r <= 1.0:
            raise ValueError(f"rho_{t}={r} outside (0,1]")
        return r

    def eta(self, t: int) -> float:
        e = float(self.eta_fn(t))
        if not 0.0 < e <= 1.0:
            raise ValueError(f"eta_{t}={e} outside (0,1]")
        return e


@dataclass
class IterationRecord:
    t: int
    objective: float | None = None
    fw_gap: float | None = None
    est_error: float | None = None
    oracle_calls: int = 0
    cum_bits: int | None = None


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    output: np.ndarray | None = None
    output_rule: str = "last"
    meta: dict = field(default_factory=dict)


def fw_gap(grad: np.ndarray, set_: FeasibleSet, x: np.ndarray,
           v: np.ndarray | None = None) -> float:
    """G(x) = max_{v in K} <v - x, -grad> = <x - lmo_min(grad), grad>.
    A caller that has solved ``lmo_min(grad)`` already passes it as ``v``."""
    x = check_finite(x, "gap point")
    if not set_.contains(x):
        raise ValueError("fw_gap requires a feasible point")
    if v is None:
        v = set_.lmo_min(grad)
    g = float((x - v) @ grad)
    if g < -1e-9:
        raise ValueError(f"negative FW gap {g}")
    return max(g, 0.0)


def _default_log_points(T: int):
    """Every t for a short run, else _LOG_POINTS geometrically spaced t and T.

    A Python set dedupes them: np.unique would import numpy.ma."""
    if T <= _LOG_POINTS:
        return set(range(1, T + 1))
    return set(np.geomspace(1, T, num=_LOG_POINTS).astype(int).tolist()) | {T}


def _assert_member(set_: FeasibleSet, x, what: str | int):
    """Raise unless ``x`` lies in ``set_``; ``what`` names x, an int k
    standing for "iterate k" (formatted only on failure)."""
    if not set_.contains(x):
        if type(what) is int:
            what = f"iterate {what}"
        raise ValueError(f"{what} left the feasible set")


def holds_origin(set_: FeasibleSet) -> bool:
    """Whether DR mode may start at 0 of ``set_``: 0 lies in it to the
    tolerance every iterate is held to."""
    return set_.contains(np.zeros(set_.dim))


def _start_point(set_: FeasibleSet, mode: str):
    if mode == "dr_submodular_max":
        if not holds_origin(set_):
            raise ValueError("origin start (DR mode needs 0 in the set) left the "
                             "feasible set")
        return np.zeros(set_.dim)
    return set_.lmo_min(np.zeros(set_.dim))


def _log(trace, t, p, set_, x, d, sched):
    value, g = p.exact_value_grad(x)
    gap = None if sched.mode == "dr_submodular_max" else fw_gap(g, set_, x)
    trace.records.append(IterationRecord(
        t=t, objective=value, fw_gap=gap,
        est_error=float(np.sum((g - d) ** 2)),
        oracle_calls=p.samples_drawn))


def random_iterate(iterates: list, rng: RngStream):
    """(i, x_i) for i uniform on 1..n, the output of a nonconvex run whose
    iterates x_1..x_n are ``iterates``: i is drawn from the run's
    ``rng.child(_OUTPUT_STREAM)``."""
    i = int(rng.child(_OUTPUT_STREAM).integers(1, len(iterates) + 1))
    return i, iterates[i - 1]


def _iteration_streams(p: StochasticProblem | None, rng: RngStream, T: int):
    """``rng.child(t)`` for t = 1..T, the iteration streams.  A multilinear
    iteration draws a from its child 0 and z, p.dim uniforms, from its child
    1, so for a :class:`MultilinearProblem` those first draws come from bulk
    Philox passes (:func:`children_ahead`).  Other runs draw normals or
    integers, and split their streams one by one."""
    if isinstance(p, MultilinearProblem):
        return children_ahead(rng, T, {0: 1, 1: p.dim})
    return map(rng.child, range(1, T + 1))


def _momentum_fw(p: StochasticProblem | None, set_: FeasibleSet, sched: Schedule,
                 rng: RngStream, variation, log_points=None) -> SolveTrace:
    """The one momentum loop: from d_0 = 0 it runs every t = 1..T alike, with
    x_prev = x_1 at t = 1.  ``variation(t, x_t, x_prev, it_rng)`` draws
    iteration t's sample from ``it_rng`` and returns a :class:`VariationEstimate`
    of Delta_t and g_t at x_t, both from that sample (plain momentum: Delta =
    0.0).  ``p``, None for bcg, is read only for the sample count and the log.
    In DR mode with eta_t = 1/T (the preset's, and bcg's) x_{T+1} =
    sum_t (1/T) v_t from 0: the output is the vertex average."""
    T = sched.T
    log_points = _default_log_points(T) if log_points is None else set(log_points)
    trace = SolveTrace(meta={"mode": sched.mode, "T": T})
    if p is not None:
        p.samples_drawn = 0

    dr = sched.mode == "dr_submodular_max"
    x = _start_point(set_, sched.mode)
    iterates = [x.copy()] if sched.mode == "nonconvex_min" else None

    d = np.zeros(set_.dim)
    x_prev = x
    for t, it in enumerate(_iteration_streams(p, rng, T), 1):
        est = variation(t, x, x_prev, it)
        d = momentum_update(d, est.delta_tilde, est.grad, sched.rho(t))
        if p is not None and p.samples_drawn != t:
            raise RuntimeError("one-sample accounting violated")
        if t in log_points:
            _log(trace, t, p, set_, x, d, sched)
        v = set_.lmo_max(d) if dr else set_.lmo_min(d)
        eta = sched.eta(t)
        x_prev = x
        x = x + eta * v if dr else x + eta * (v - x)
        _assert_member(set_, x, t + 1)
        if iterates is not None:
            iterates.append(x.copy())

    if p is not None:
        trace.meta["oracle_calls"] = p.samples_drawn
    if sched.mode == "nonconvex_min":
        idx, trace.output = random_iterate(iterates, rng)
        trace.output_rule = "uniform_random_iterate"
        trace.meta["output_index"] = idx
    else:
        trace.output = x
        trace.output_rule = "last"
    return trace


def one_sfw(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
            option: str, rng: RngStream, log_points=None) -> SolveTrace:
    """Momentum Frank-Wolfe with one stochastic sample per iteration.

    ``option`` picks the variation estimator: "exact_hessian" uses the
    one-sample Hessian estimate, "grad_diff" its finite-difference
    approximation with radius sqrt(3) eta_{max(t-1,1)} Lbar / (D L2 (1+B)),
    whose constants B, G, L, L2 a multilinear problem derives from the box
    ``set_`` (:meth:`MultilinearProblem.domain_constants`).
    """
    if option not in ONE_SFW_OPTIONS:
        raise ValueError(f"unknown option {option!r}")
    if option == "grad_diff":
        if not (isinstance(p, MultilinearProblem) and isinstance(set_, Box)):
            raise ValueError("grad_diff needs a multilinear problem on a box")
        constants, D = p.domain_constants(set_), set_.diameter()

    def variation(t, x, x_prev, it):
        if option == "exact_hessian":
            return variation_exact_hessian(p, x, x_prev, it)
        delta = grad_diff_delta(sched.eta(max(t - 1, 1)), constants, D)
        return variation_grad_diff(p, x, x_prev, delta, it)

    return _momentum_fw(p, set_, sched, rng, variation, log_points)


def oblivious_sfw(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
                  rng: RngStream, log_points=None) -> SolveTrace:
    """Momentum Frank-Wolfe with the same-sample gradient difference
    (valid only when the sample law does not depend on x)."""
    if p.mode != "oblivious":
        raise ValueError("oblivious_sfw requires an oblivious problem")

    def variation(t, x, x_prev, it):
        return variation_oblivious(p, x, x_prev, it)

    return _momentum_fw(p, set_, sched, rng, variation, log_points)


def scg_baseline(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
                 rng: RngStream, log_points=None) -> SolveTrace:
    """Momentum-only baseline: d_t = (1-rho_t) d_{t-1} + rho_t g_t."""

    def variation(t, x, x_prev, it):
        return VariationEstimate(0.0, p.one_sample_grad(x, p.sample(x, it.child(1))))

    return _momentum_fw(p, set_, sched, rng, variation, log_points)


def deterministic_fw(grad_oracle, set_: FeasibleSet, T: int,
                     value_oracle) -> SolveTrace:
    """Classical Frank-Wolfe with exact gradient and value oracles and step
    2/(k+2), from the vertex lmo_min(0).  The logged gap reuses the step's
    vertex v, so each iteration solves one LMO."""
    x = set_.lmo_min(np.zeros(set_.dim))
    _assert_member(set_, x, "start point")
    trace = SolveTrace(meta={"mode": "deterministic"})
    for k in range(1, int(T) + 1):
        g = grad_oracle(x)
        v = set_.lmo_min(g)
        eta = 2.0 / (k + 2.0)
        trace.records.append(IterationRecord(
            t=k, objective=float(value_oracle(x)), fw_gap=fw_gap(g, set_, x, v)))
        x = x + eta * (v - x)
        _assert_member(set_, x, k + 1)
    trace.output = x
    return trace


def bcg(value_oracle, set_: FeasibleSet, rng: RngStream, T: int, delta: float,
        batch: int) -> np.ndarray:
    """Zeroth-order continuous greedy for monotone DR maximization.

    Runs :func:`_momentum_fw`, unlogged, on the shrunk-translated set
    K' = (X'_delta intersect K) - delta 1, so every two-point probe
    delta 1 + x_t +/- delta u stays inside the function's domain [0, 1]^d.
    g_t is the two-point gradient, Delta_t = 0, rho_t = 2/(t+3)^{2/3} and
    eta_t = 1/T, so x averages T vertices of K'; the output is shifted back
    by delta 1.  ``value_oracle`` maps a (k, d) array of points to their (k,)
    values; each iteration makes one call, on all 2·batch probes.  ``T``
    stays the fourth positional argument: perfbench's tracer reads it there.
    """
    if not 0 < delta:
        raise ValueError("delta must be positive")
    T = int(T)
    shift = delta * np.ones(set_.dim)

    def variation(t, x, x_prev, it):
        return VariationEstimate(0.0, two_point_gradient(
            lambda Y: value_oracle(Y + shift), x, delta, batch, it))

    sched = Schedule(T, "dr_submodular_max",
                     lambda t: 2.0 / (t + 3.0) ** (2.0 / 3.0), lambda t: 1.0 / T)
    out = _momentum_fw(None, shrink_translate(set_, delta), sched, rng, variation,
                       log_points=()).output + shift
    _assert_member(set_, out, "BCG output")
    return out


def dbg(f, set_, T: int, delta: float, l: int, batch, rng: RngStream):
    """Discrete zeroth-order greedy: continuous greedy on the multilinear
    extension with each value query replaced by the average of ``l``
    sampled f(S), S drawn coordinate-independently from the query point,
    followed by value-preserving rounding to a base of ``set_.matroid``;
    ``set_`` is a :class:`PartitionMatroidPolytope`."""
    if l < 1:
        raise ValueError("sample count l must be >= 1")
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    m, d = set_.matroid, set_.dim
    if all(b == 0 for b in m.budgets):
        return np.zeros(d, dtype=bool)
    oracle_rng = rng.child(0xD1)

    def value_oracle(Y):
        # row by row, so oracle_rng serves the probes in order
        return np.array([sampled_value(f, y, l, oracle_rng) for y in Y])

    x = bcg(value_oracle, set_, rng.child(0xD2), T, delta, batch)
    return pipage_round(x, m, f, rng.child(0xD3))
