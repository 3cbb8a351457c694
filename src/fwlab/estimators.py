"""Gradient estimation machinery.

Momentum averaging with an additive variation correction:

    d_t = (1 - rho_t)(d_{t-1} + Delta_t) + rho_t * g_t

where Delta_t estimates the gradient variation grad F(x_t) - grad F(x_{t-1}).
Three variation estimators are provided: the one-sample Hessian estimator
(exact Hessian-vector products plus score-function terms), its
gradient-difference approximation (no second-order oracle needed), and the
oblivious same-sample gradient difference.  The two-point sphere estimator
serves the purely zeroth-order solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Sample, StochasticProblem
from .rng import RngStream, check_finite, sample_unit_ball, sample_unit_sphere

__all__ = [
    "VariationEstimate",
    "momentum_update",
    "hessian_estimate_apply",
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
    sample: Sample | None
    clamped: bool = False  # a grad-diff probe was clipped into the domain


def momentum_update(d: np.ndarray, delta_tilde: np.ndarray,
                    g_new: np.ndarray, rho: float) -> np.ndarray:
    """d_t = (1 - rho)(d_{t-1} + Delta_t) + rho g_t."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [0,1]")
    d = (1.0 - rho) * (d + delta_tilde) + rho * g_new
    return check_finite(d, "momentum estimate")


def hessian_estimate_apply(p: StochasticProblem, x: np.ndarray, s: Sample,
                           u: np.ndarray) -> np.ndarray:
    """One-sample Hessian-vector estimate applied to u.

    With z drawn from p(.;x) the expectation is the true Hessian-vector
    product grad^2 F(x) u; the problem computes it
    (:meth:`StochasticProblem.hessian_estimate`).
    """
    u = check_finite(u, "hessian direction")
    return check_finite(p.hessian_estimate(x, s, u), "hessian estimate")


def _interp_point(x_t, x_prev, rng_a, a):
    if a is None:
        a = float(rng_a.uniform())
    if not 0.0 <= a <= 1.0:
        raise ValueError("interpolation weight outside [0,1]")
    return a * np.asarray(x_t, float) + (1.0 - a) * np.asarray(x_prev, float)


def variation_exact_hessian(p: StochasticProblem, x_t, x_prev,
                            rng_a: RngStream, rng_z: RngStream,
                            a: float | None = None,
                            sample: Sample | None = None) -> VariationEstimate:
    """Delta_t = one-sample Hessian estimate at a random interpolation point.

    Draws a ~ U[0,1], sets x(a) = a x_t + (1-a) x_prev, samples z ~ p(.;x(a))
    and applies the estimator to u = x_t - x_prev.  Unbiased for
    grad F(x_t) - grad F(x_prev) by the fundamental theorem of calculus.
    ``a``/``sample`` may be supplied to couple runs sample-for-sample.
    """
    xa = _interp_point(x_t, x_prev, rng_a, a)
    if sample is None:
        sample = p.sample(xa, rng_z)
    u = np.asarray(x_t, float) - np.asarray(x_prev, float)
    if not u.any():
        return VariationEstimate(np.zeros(p.dim), sample)
    return VariationEstimate(hessian_estimate_apply(p, xa, sample, u), sample)


def variation_grad_diff(p: StochasticProblem, x_t, x_prev, delta: float,
                        rng_a: RngStream, rng_z: RngStream,
                        a: float | None = None,
                        sample: Sample | None = None,
                        probe_clip: tuple | None = None) -> VariationEstimate:
    """Gradient-difference variant: second-order oracles replaced by
    central differences of first-order oracles along u = x_t - x_prev.

    phi(delta; psi) = [grad psi(x + delta u) - grad psi(x - delta u)] / (2 delta)
    approximates grad^2 psi(x) u with error at most L2 * delta * ||u||^2.
    ``probe_clip`` = (lo, hi) clamps probe points into the oracle domain
    (flagged on the result).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    xa = _interp_point(x_t, x_prev, rng_a, a)
    if sample is None:
        sample = p.sample(xa, rng_z)
    u = np.asarray(x_t, float) - np.asarray(x_prev, float)
    if not u.any():
        return VariationEstimate(np.zeros(p.dim), sample)

    xp, xm = xa + delta * u, xa - delta * u
    clamped = False
    if probe_clip is not None:
        lo, hi = probe_clip
        cp, cm = np.clip(xp, lo, hi), np.clip(xm, lo, hi)
        clamped = bool(np.any(cp != xp) or np.any(cm != xm))
        xp, xm = cp, cm

    val = p.value(xa, sample)
    gF = p.grad(xa, sample)
    lg = p.logp_grad(xa, sample)
    lg_u = float(lg @ u)
    phi_F = (p.grad(xp, sample) - p.grad(xm, sample)) / (2.0 * delta)
    phi_lp = (p.logp_grad(xp, sample) - p.logp_grad(xm, sample)) / (2.0 * delta)
    dt = val * lg_u * lg + phi_F + lg_u * gF + val * phi_lp + float(gF @ u) * lg
    return VariationEstimate(check_finite(dt, "grad-diff estimate"), sample,
                             clamped)


def variation_oblivious(p: StochasticProblem, x_t, x_prev,
                        sample: Sample) -> VariationEstimate:
    """Delta_t = grad F(x_t; z) - grad F(x_prev; z) at a shared sample.

    Only valid for oblivious problems: when the sample law depends on x the
    shared-z difference is biased.
    """
    if p.mode != "oblivious":
        raise ValueError("same-sample gradient difference requires an oblivious problem")
    dt = p.grad(np.asarray(x_t, float), sample) - p.grad(np.asarray(x_prev, float), sample)
    return VariationEstimate(check_finite(dt, "oblivious difference"), sample)


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
    U = np.array([sample_unit_sphere(rng, d) for _ in range(batch)])
    probes = np.empty((2 * batch, d))
    probes[0::2] = x + delta * U
    probes[1::2] = x - delta * U
    vals = np.asarray(value_oracle(probes), dtype=float)
    g = np.zeros(d)
    for v_plus, v_minus, u in zip(vals[0::2], vals[1::2], U):
        g += (v_plus - v_minus) * u
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
