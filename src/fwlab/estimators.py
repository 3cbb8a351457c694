"""Gradient estimation machinery.

Momentum averaging with an additive variation correction:

    d_t = (1 - rho_t)(d_{t-1} + Delta_t) + rho_t * g_t

where Delta_t estimates the gradient variation grad F(x_t) - grad F(x_{t-1}).
Three variation estimators are provided: the one-sample Hessian estimator
(exact Hessian-vector products plus score-function terms), its
gradient-difference approximation (no second-order oracle needed), and the
oblivious same-sample gradient difference.  Each returns a
:class:`VariationEstimate` holding Delta_t and g_t, the one-sample gradient
at x_t, both from the iteration's single sample z_t.  The first two take the
iteration's stream and draw that sample themselves: a ~ U[0,1] from its
child 0, then z_t ~ p(.;x(a)) from its child 1.  The two-point sphere
estimator serves the purely zeroth-order solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Sample, StochasticProblem, five_term_estimate
from .rng import RngStream, check_finite, sample_unit_ball, sample_unit_sphere

__all__ = [
    "VariationEstimate",
    "momentum_update",
    "variation_exact_hessian",
    "variation_grad_diff",
    "variation_oblivious",
    "two_point_gradient",
    "smoothed_value_mc",
    "lbar_constant",
    "grad_diff_delta",
]


@dataclass
class VariationEstimate:
    delta_tilde: np.ndarray
    grad: np.ndarray  # the one-sample gradient at x_t, from the estimate's sample
    clamped: bool = False  # a grad-diff probe was clipped into the domain


def momentum_update(d: np.ndarray, delta_tilde: np.ndarray,
                    g_new: np.ndarray, rho: float) -> np.ndarray:
    """d_t = (1 - rho)(d_{t-1} + Delta_t) + rho g_t."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [0,1]")
    d = (1.0 - rho) * (d + delta_tilde) + rho * g_new
    return check_finite(d, "momentum estimate")


def _sample_between(p: StochasticProblem, x_t, x_prev, it: RngStream):
    """x(a) = a x_t + (1-a) x_prev with a ~ U[0,1] from ``it.child(0)``, and
    z ~ p(.;x(a)) from ``it.child(1)``."""
    # a's stream is a temporary, gone before the sample stream draws, so the
    # pooled generator has no state to save for it
    a = float(it.child(0).uniform())
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
    if not u.any():
        return VariationEstimate(np.zeros(p.dim), g_t)
    return VariationEstimate(
        check_finite(p.hessian_estimate(xa, sample, u), "hessian estimate"), g_t)


def variation_grad_diff(p: StochasticProblem, x_t, x_prev, delta: float,
                        it: RngStream) -> VariationEstimate:
    """Gradient-difference variant: second-order oracles replaced by
    central differences of first-order oracles along u = x_t - x_prev.

    phi(delta; psi) = [grad psi(x + delta u) - grad psi(x - delta u)] / (2 delta)
    approximates grad^2 psi(x) u with error at most L2 * delta * ||u||^2.
    x(a) and z are drawn as in :func:`variation_exact_hessian`.  A
    non-oblivious problem's sample law is defined on [0, 1]^d only, so its
    probe points are clipped into it (flagged on the result).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    xa, sample = _sample_between(p, x_t, x_prev, it)
    g_t = p.one_sample_grad(x_t, sample)
    u = x_t - x_prev
    if not u.any():
        return VariationEstimate(np.zeros(p.dim), g_t)

    xp, xm = xa + delta * u, xa - delta * u
    clamped = False
    if p.mode == "nonoblivious":
        cp, cm = np.clip(xp, 0.0, 1.0), np.clip(xm, 0.0, 1.0)
        clamped = bool(np.any(cp != xp) or np.any(cm != xm))
        xp, xm = cp, cm

    phi_F = (p.grad(xp, sample) - p.grad(xm, sample)) / (2.0 * delta)
    phi_lp = (p.logp_grad(xp, sample) - p.logp_grad(xm, sample)) / (2.0 * delta)
    dt = five_term_estimate(p.value(xa, sample), p.grad(xa, sample),
                            p.logp_grad(xa, sample), u, phi_F, phi_lp)
    return VariationEstimate(check_finite(dt, "grad-diff estimate"), g_t, clamped)


def variation_oblivious(p: StochasticProblem, x_t, x_prev,
                        sample: Sample) -> VariationEstimate:
    """Delta_t = grad F(x_t; z) - grad F(x_prev; z) at a shared sample.

    Only valid for oblivious problems: when the sample law depends on x the
    shared-z difference is biased.  The result carries grad F(x_t; z), which
    is the one-sample gradient at x_t.
    """
    if p.mode != "oblivious":
        raise ValueError("same-sample gradient difference requires an oblivious problem")
    g_t = p.grad(np.asarray(x_t, float), sample)
    dt = g_t - p.grad(np.asarray(x_prev, float), sample)
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
    probes[0::2] = x + delta * U
    probes[1::2] = x - delta * U
    vals = np.asarray(value_oracle(probes), dtype=float)
    # the terms are added in row order, as a loop from zeros adds them; + 0.0
    # turns a −0.0 sum into the +0.0 that such a loop gives
    g = np.add.accumulate((vals[0::2] - vals[1::2])[:, None] * U, axis=0)[-1] + 0.0
    return (d / (2.0 * delta)) * g / batch


def smoothed_value_mc(value_oracle, x: np.ndarray, delta: float,
                      n_samples: int, rng: RngStream) -> tuple[float, float]:
    """Monte-Carlo mean of F over the delta-ball around x, with its SE.

    ``value_oracle`` maps a (k, d) array of points to their (k,) values.
    """
    x = check_finite(x, "smoothing center")
    if delta == 0.0:
        return float(value_oracle(x[None, :])[0]), 0.0
    balls = np.array([sample_unit_ball(rng, x.size) for _ in range(n_samples)])
    vals = np.asarray(value_oracle(x + delta * balls), dtype=float)
    se = float(np.std(vals, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else np.inf
    return float(np.mean(vals)), se


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
