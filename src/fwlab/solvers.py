"""Projection-free optimization drivers.

All drivers share the skeleton: estimate a gradient, call the constraint
set's linear oracle, move toward (minimization: x + eta (v - x)) or along
(monotone maximization: x + eta v) the returned vertex.  The momentum
solvers and bcg run one loop; a one-sample step draws exactly one sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import MEMBERSHIP_TOL, Box, FeasibleSet, pipage_round, shrink_translate
from .estimators import (
    VariationEstimate,
    grad_diff_delta,
    momentum_update,
    two_point_gradient,
    variation_exact_hessian,
    variation_grad_diff,
    variation_oblivious,
)
from .problems import MultilinearProblem, StochasticProblem
from .rng import RngStream, check_finite

__all__ = [
    "Schedule",
    "IterationRecord",
    "SolveTrace",
    "fw_gap",
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
    wall_ms: float = 0.0


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)
    output: np.ndarray | None = None
    output_rule: str = "last"
    snapshots: dict = field(default_factory=dict)  # t -> (x_t, d_t)
    meta: dict = field(default_factory=dict)


def fw_gap(grad: np.ndarray, set_: FeasibleSet, x: np.ndarray) -> float:
    """G(x) = max_{v in K} <v - x, -grad> = <x - lmo_min(grad), grad>."""
    x = check_finite(x, "gap point")
    if not set_.contains(x, tol=MEMBERSHIP_TOL * 10):
        raise ValueError("fw_gap requires a feasible point")
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


def _assert_member(set_: FeasibleSet, x, what: str):
    if not set_.contains(x, tol=MEMBERSHIP_TOL * 10):
        raise ValueError(f"{what} left the feasible set")


def _start_point(set_: FeasibleSet, mode: str):
    if mode == "dr_submodular_max":
        x0 = np.zeros(set_.dim)
        _assert_member(set_, x0, "origin start (DR mode needs 0 in the set)")
        return x0
    return set_.lmo_min(np.zeros(set_.dim))


def _log(trace, t, p, set_, x, d, sched, t0, keep_snapshots):
    value, g = p.exact_value_grad(x)
    gap = None if sched.mode == "dr_submodular_max" else fw_gap(g, set_, x)
    trace.records.append(IterationRecord(
        t=t, objective=value, fw_gap=gap,
        est_error=float(np.sum((g - d) ** 2)),
        oracle_calls=p.samples_drawn,
        wall_ms=1000.0 * (time.perf_counter() - t0)))
    if keep_snapshots:
        trace.snapshots[t] = (x.copy(), d.copy())


def _momentum_fw(p: StochasticProblem | None, set_: FeasibleSet, sched: Schedule,
                 rng: RngStream, variation, log_points=None,
                 keep_snapshots=False) -> SolveTrace:
    """The one momentum loop: from d_0 = 0 it runs every t = 1..T alike, with
    x_prev = x_1 at t = 1.  ``variation(t, x_t, x_prev, it_rng)`` draws
    iteration t's sample from ``it_rng`` and returns a :class:`VariationEstimate`
    of Delta_t and g_t at x_t, both from that sample (plain momentum: Delta =
    0).  ``p``, None for bcg, is read only for the sample count and the log."""
    T = sched.T
    log_points = _default_log_points(T) if log_points is None else set(log_points)
    t0 = time.perf_counter()
    trace = SolveTrace(meta={"mode": sched.mode, "T": T})
    if p is not None:
        p.samples_drawn = 0

    dr = sched.mode == "dr_submodular_max"
    x = _start_point(set_, sched.mode)
    iterates = [x.copy()] if sched.mode == "nonconvex_min" else None
    vertex_sum = np.zeros(set_.dim)

    d = np.zeros(set_.dim)
    x_prev = x
    for t in range(1, T + 1):
        est = variation(t, x, x_prev, rng.child(t))
        d = momentum_update(d, est.delta_tilde, est.grad, sched.rho(t))
        if p is not None and p.samples_drawn != t:
            raise RuntimeError("one-sample accounting violated")
        if t in log_points:
            _log(trace, t, p, set_, x, d, sched, t0, keep_snapshots)
        v = set_.lmo_max(d) if dr else set_.lmo_min(d)
        eta = sched.eta(t)
        x_prev = x
        x = x + eta * v if dr else x + eta * (v - x)
        vertex_sum += v
        _assert_member(set_, x, f"iterate {t + 1}")
        if iterates is not None:
            iterates.append(x.copy())

    if p is not None:
        trace.meta["oracle_calls"] = p.samples_drawn
    if sched.mode == "nonconvex_min":
        idx = int(rng.child(_OUTPUT_STREAM).integers(1, T + 2))
        trace.output = iterates[idx - 1]
        trace.output_rule = "uniform_random_iterate"
        trace.meta["output_index"] = idx
    else:
        trace.output = x
        trace.output_rule = "last"
    if dr:
        trace.meta["vertex_average"] = vertex_sum / T
    return trace


def one_sfw(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
            option: str, rng: RngStream, log_points=None,
            keep_snapshots=False) -> SolveTrace:
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

    return _momentum_fw(p, set_, sched, rng, variation, log_points, keep_snapshots)


def oblivious_sfw(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
                  rng: RngStream, log_points=None,
                  keep_snapshots=False) -> SolveTrace:
    """Momentum Frank-Wolfe with the same-sample gradient difference
    (valid only when the sample law does not depend on x)."""
    if p.mode != "oblivious":
        raise ValueError("oblivious_sfw requires an oblivious problem")

    def variation(t, x, x_prev, it):
        return variation_oblivious(p, x, x_prev, p.sample(x, it.child(1)))

    return _momentum_fw(p, set_, sched, rng, variation, log_points, keep_snapshots)


def scg_baseline(p: StochasticProblem, set_: FeasibleSet, sched: Schedule,
                 rng: RngStream, log_points=None,
                 keep_snapshots=False) -> SolveTrace:
    """Momentum-only baseline: d_t = (1-rho_t) d_{t-1} + rho_t g_t."""

    def variation(t, x, x_prev, it):
        return VariationEstimate(np.zeros(p.dim),
                                 p.one_sample_grad(x, p.sample(x, it.child(1))))

    return _momentum_fw(p, set_, sched, rng, variation, log_points, keep_snapshots)


def deterministic_fw(grad_oracle, set_: FeasibleSet, T: int,
                     value_oracle=None) -> SolveTrace:
    """Classical Frank-Wolfe with an exact gradient oracle and step
    2/(k+2), from the vertex lmo_min(0)."""
    x = set_.lmo_min(np.zeros(set_.dim))
    _assert_member(set_, x, "start point")
    trace = SolveTrace(meta={"mode": "deterministic"})
    t0 = time.perf_counter()
    for k in range(1, int(T) + 1):
        g = grad_oracle(x)
        v = set_.lmo_min(g)
        eta = 2.0 / (k + 2.0)
        obj = None if value_oracle is None else float(value_oracle(x))
        trace.records.append(IterationRecord(
            t=k, objective=obj, fw_gap=fw_gap(g, set_, x),
            wall_ms=1000.0 * (time.perf_counter() - t0)))
        x = x + eta * (v - x)
        _assert_member(set_, x, f"iterate {k + 1}")
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


def dbg(f, m, T: int, delta: float, l: int, batch, rng: RngStream):
    """Discrete zeroth-order greedy: continuous greedy on the multilinear
    extension with each value query replaced by the average of ``l``
    sampled f(S), S drawn coordinate-independently from the query point,
    followed by value-preserving rounding to a matroid base."""
    if l < 1:
        raise ValueError("sample count l must be >= 1")
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    d = m.ground_size
    if all(b == 0 for b in m.budgets):
        return np.zeros(d, dtype=bool)
    set_ = m.polytope()
    oracle_rng = rng.child(0xD1)

    def value_oracle(Y):
        # row by row, so oracle_rng serves the probes in order
        out = np.empty(len(Y))
        for r, y in enumerate(Y):
            q = np.clip(y, 0.0, 1.0)
            draws = oracle_rng.random((l, d)) < q[None, :]
            out[r] = np.mean(f.batch(draws))
        return out

    x = bcg(value_oracle, set_, rng.child(0xD2), T, delta, batch)
    return pipage_round(x, m, f, rng.child(0xD3))
