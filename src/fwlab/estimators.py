"""Gradient estimation machinery.

Momentum averaging with an additive variation correction:

    d_t = (1 - rho_t)(d_{t-1} + Delta_t) + rho_t * g_t

where Delta_t estimates the gradient variation grad F(x_t) - grad F(x_{t-1}).
Three variation estimators are provided: the one-sample Hessian estimator
in the problem family's own form (grad^2 F(x;z) u on an oblivious problem,
f(z)(<grad log p, u> grad log p + grad^2 log p u) on a multilinear one),
its gradient-difference approximation (no second-order oracle needed), and
the oblivious same-sample gradient difference.  Each takes the iteration's
stream, draws the iteration's single sample z_t from it, and returns a
:class:`VariationEstimate` holding Delta_t and g_t, the one-sample gradient
at x_t, both from z_t.  The first two draw a ~ U[0,1] from the stream's
child 0, then z_t ~ p(.;x(a)) from its child 1; the third draws z_t from
child 1 alone.  The two-point sphere estimator serves the purely
zeroth-order solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import StochasticProblem
from .rng import RngStream, check_finite, sample_unit_sphere

__all__ = [
    "VariationEstimate",
    "momentum_update",
    "variation_exact_hessian",
    "variation_grad_diff",
    "variation_oblivious",
    "two_point_gradient",
    "lbar_constant",
    "grad_diff_delta",
]


@dataclass(slots=True)
class VariationEstimate:
    delta_tilde: np.ndarray | float  # 0.0 where a solver runs plain momentum
    grad: np.ndarray  # the one-sample gradient at x_t, from the estimate's sample
    clamped: bool = False  # a grad-diff probe was clipped into the domain


def momentum_update(d: np.ndarray, delta_tilde: np.ndarray | float,
                    g_new: np.ndarray, rho: float) -> np.ndarray:
    """d_t = (1 - rho)(d_{t-1} + Delta_t) + rho g_t."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [0,1]")
    # in place after the first add, in the same order: (d + Delta)(1 - rho)
    # has the bits of (1 - rho)(d + Delta), as IEEE products commute
    d = d + delta_tilde
    d *= 1.0 - rho
    d += rho * g_new
    return check_finite(d, "momentum estimate")


def _sample_between(p: StochasticProblem, x_t, x_prev, it: RngStream):
    """x(a) = a x_t + (1-a) x_prev with a ~ U[0,1] from ``it.child(0)``, and
    z ~ p(.;x(a)) from ``it.child(1)``."""
    # a's stream is a temporary, gone before the sample stream draws, so the
    # pooled generator has no state to save for it.  random() is uniform()'s
    # draw: numpy's uniform(0, 1) is 0 + 1 * next_double, at the same position
    a = float(it.child(0).random())
    xa = a * x_t + (1.0 - a) * x_prev
    return xa, p.sample(xa, it.child(1))


def variation_exact_hessian(p: StochasticProblem, x_t, x_prev,
                            it: RngStream) -> VariationEstimate:
    """Delta_t = one-sample Hessian estimate at a random interpolation point.

    Draws a ~ U[0,1], sets x(a) = a x_t + (1-a) x_prev, samples z ~ p(.;x(a))
    and applies :meth:`StochasticProblem.hessian_estimate` to
    u = x_t - x_prev.  Unbiased for grad F(x_t) - grad F(x_prev) by the
    fundamental theorem of calculus.
    """
    xa, sample = _sample_between(p, x_t, x_prev, it)
    g_t = p.one_sample_grad(x_t, sample)
    u = x_t - x_prev
    if not np.count_nonzero(u):
        return VariationEstimate(np.zeros(p.dim), g_t)
    return VariationEstimate(
        check_finite(p.hessian_estimate(xa, sample, u), "hessian estimate"), g_t)


def variation_grad_diff(p: StochasticProblem, x_t, x_prev, delta: float,
                        it: RngStream) -> VariationEstimate:
    """Gradient-difference variant for a non-oblivious problem, whose
    F̃(x;z) = f(z) is x-free: Delta_t = f(z) (<grad log p, u> grad log p
    + phi_lp) at x(a), where the central difference of the score along
    u = x_t - x_prev, phi_lp = [grad log p(x + delta u) - grad log p(x -
    delta u)] / (2 delta), stands for grad^2 log p u with error at most
    L2 * delta * ||u||^2.  x(a) and z are drawn as in
    :func:`variation_exact_hessian`.  The sample law is defined on [0, 1]^d
    only, so the probes are clipped into it (flagged on the result).
    """
    if p.mode != "nonoblivious":
        raise ValueError("score-function gradient difference requires a "
                         "non-oblivious problem")
    if delta <= 0:
        raise ValueError("delta must be positive")
    xa, sample = _sample_between(p, x_t, x_prev, it)
    g_t = p.one_sample_grad(x_t, sample)
    u = x_t - x_prev
    if not np.count_nonzero(u):
        return VariationEstimate(np.zeros(p.dim), g_t)

    xp, xm = xa + delta * u, xa - delta * u
    cp, cm = np.clip(xp, 0.0, 1.0), np.clip(xm, 0.0, 1.0)
    clamped = bool(np.any(cp != xp) or np.any(cm != xm))
    phi_lp = (p.logp_grad(cp, sample) - p.logp_grad(cm, sample)) / (2.0 * delta)
    val, lg = p.value(xa, sample), p.logp_grad(xa, sample)
    # + 0.0 turns a −0.0 entry into +0.0, as MultilinearProblem.hessian_estimate
    # does: the bits the run pins were made with
    dt = val * float(lg @ u) * lg + val * phi_lp + 0.0
    return VariationEstimate(check_finite(dt, "grad-diff estimate"), g_t, clamped)


def variation_oblivious(p: StochasticProblem, x_t, x_prev,
                        it: RngStream) -> VariationEstimate:
    """Delta_t = grad F(x_t; z) - grad F(x_prev; z) at one shared sample z,
    drawn from ``it.child(1)``.

    Only valid for oblivious problems: when the sample law depends on x the
    shared-z difference is biased.  The result carries grad F(x_t; z), which
    is the one-sample gradient at x_t.
    """
    if p.mode != "oblivious":
        raise ValueError("same-sample gradient difference requires an oblivious problem")
    sample = p.sample(x_t, it.child(1))
    g_t = p.one_sample_grad(np.asarray(x_t, float), sample)
    dt = g_t - p.one_sample_grad(np.asarray(x_prev, float), sample)
    return VariationEstimate(check_finite(dt, "oblivious difference"), g_t)


def two_point_gradient(value_oracle, x: np.ndarray, delta: float,
                       batch: int, rng: RngStream) -> np.ndarray:
    """Sphere-sampling gradient of the delta-smoothed function:

    (1/B) sum_i (d / (2 delta)) [F(x + delta u_i) - F(x - delta u_i)] u_i
    with u_i uniform on the unit sphere.  Unbiased for the smoothed
    gradient; the value oracle itself may be stochastic.

    ``value_oracle`` maps a (k, d) array of points to their (k,) values.  It
    is called once, on the probes x + delta u_1, x - delta u_1,
    x + delta u_2, ... in that row order.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    x = check_finite(x, "two-point center")
    d = x.size
    U = sample_unit_sphere(rng, d, size=batch)
    probes = np.empty((2 * batch, d))
    step = delta * U
    probes[0::2] = x + step
    probes[1::2] = x - step
    vals = np.asarray(value_oracle(probes), dtype=float)
    # the terms are added in row order, as a loop from zeros adds them; + 0.0
    # turns a −0.0 sum into the +0.0 that such a loop gives
    g = np.add.accumulate((vals[0::2] - vals[1::2])[:, None] * U, axis=0)[-1] + 0.0
    return (d / (2.0 * delta)) * g / batch


def lbar_constant(B: float, G: float, L: float) -> float:
    """sqrt(4 B^2 G^4 + 16 G^4 + 4 L^2 + 4 B^2 L^2), the combined smoothness
    constant of the one-sample Hessian estimator."""
    return float(np.sqrt(4 * B**2 * G**4 + 16 * G**4 + 4 * L**2 + 4 * B**2 * L**2))


def grad_diff_delta(eta_prev: float, constants: dict, D: float) -> float:
    """Finite-difference radius schedule delta_t = sqrt(3) eta_{t-1} Lbar /
    (D L2 (1 + B)), keeping the approximation error of the same order as
    the momentum noise floor."""
    B, G, L, L2 = (constants[k] for k in ("B", "G", "L", "L2"))
    if L2 <= 0 or D <= 0:
        raise ValueError("need positive D and L2")
    return float(np.sqrt(3.0) * eta_prev * lbar_constant(B, G, L) / (D * L2 * (1.0 + B)))
