"""Reference code that the guarantee tests compare the package against:
the quantizer's variance law (test_07), the ball smoothing (test_11),
random bounded set functions (test_14), the multilinear Hessian (test_06,
test_14) and a quadratic finite sum (test_10).

No ``fwlab`` run calls any of it, so it lives beside the tests, not in
``src/fwlab``.  It reads five private names of the package, all on a run
path: ``quantize._partition_law`` (the encoder's level law),
``problems._softplus`` (the finite-sum logistic values),
``LogisticL1._margin`` (the per-sample margin), and
``problems._multilinear_rows`` and ``problems._all_values`` (the multilinear
contraction and the 2^d table it reads).
"""

import numpy as np

from fwlab.problems import (FiniteSumProblem, LogisticL1, Sample, SetFunction, _all_values,
                            _multilinear_rows, _softplus, block_rows)
from fwlab.quantize import _partition_law
from fwlab.rng import RngStream, check_finite, sample_unit_sphere

__all__ = ["exact_variance", "variance_upper_bound", "encode_decode_batch",
           "sample_unit_ball", "smoothed_value_mc", "TableSetFunction",
           "make_random_bounded", "multilinear_hessian", "quadratic_finite_sum",
           "logistic_value"]


def exact_variance(g: np.ndarray, s: int) -> float:
    """Closed-form Var[decode(encode(g))] summed over coordinates."""
    if s < 1:
        raise ValueError("partition count s must be >= 1")
    inf, _, q = _partition_law(check_finite(g, "quantizer input"), s)
    return float(inf * inf * np.sum(q * (1.0 - q)) / (s * s))


def variance_upper_bound(g: np.ndarray, s: int) -> float:
    """(d/s^2) * ||g||_inf^2, the worst-case variance of the scheme."""
    g = np.asarray(g, dtype=float)
    inf = float(np.max(np.abs(g))) if g.size else 0.0
    return g.size / (s * s) * inf * inf


def encode_decode_batch(g: np.ndarray, s: int, n_rounds: int, rng: RngStream) -> np.ndarray:
    """decode(encode(g)) repeated n_rounds times on one stream, in one draw;
    rows are rounds."""
    g = check_finite(g, "quantizer input")
    inf, lo, q = _partition_law(g, s)
    if inf == 0.0:
        return np.zeros((n_rounds, g.size))
    levels = lo[None, :] + (rng.random((n_rounds, g.size)) < q[None, :])
    return np.sign(g)[None, :] * (levels / s) * inf


def sample_unit_ball(rng: RngStream, d: int) -> np.ndarray:
    """Uniform draw from the unit ball B^d (sphere sample scaled by U^{1/d})."""
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    u = sample_unit_sphere(rng, d, 1)[0]
    r = rng.uniform() ** (1.0 / d)
    return r * u


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


class TableSetFunction(SetFunction):
    """Set function given by an explicit table of 2^d values, subset S at
    index Σ_{i∈S} 2^i."""

    def __init__(self, values: np.ndarray):
        self.values = check_finite(values, "set-function table")
        d = int(np.log2(self.values.size))
        if 2**d != self.values.size:
            raise ValueError("table length must be a power of two")
        self.ground_size = d
        self._pows = (2 ** np.arange(d)).astype(np.int64)

    def batch(self, masks):
        idx = np.asarray(masks, dtype=np.int64) @ self._pows
        return self.values[idx]

    @property
    def bound(self):
        return float(np.max(np.abs(self.values)))


def make_random_bounded(d: int, rng: RngStream) -> TableSetFunction:
    """A table of 2^d values uniform on [-1, 1]."""
    return TableSetFunction(rng.uniform(-1.0, 1.0, size=2**d))


def multilinear_hessian(f: SetFunction, x: np.ndarray) -> np.ndarray:
    """∇²F(x) of the multilinear extension, d × d: one row of a
    ``_multilinear_rows`` stack per pair i < j, with both pairs swapped for
    their derivative (−1, 1), gives ∂²F/∂x_i∂x_j (the diagonal is zero by
    multilinearity).  A row rounds as it does alone, so each entry has the
    bits of that pair's row in any stack."""
    x = check_finite(x, "multilinear point")
    d = f.ground_size
    if x.shape != (d,):
        raise ValueError("dimension mismatch")
    I, J = np.triu_indices(d, 1)
    P = np.tile(np.stack([1.0 - x, x], axis=-1), (I.size, 1, 1))
    rows = np.arange(I.size)
    P[rows, I] = P[rows, J] = (-1.0, 1.0)
    H = np.zeros((d, d))
    H[I, J] = H[J, I] = _multilinear_rows(_all_values(f), P)
    return H


def quadratic_finite_sum(targets: np.ndarray) -> FiniteSumProblem:
    """Components f_i(x) = 0.5‖x − t_i‖² for the rows t_i of ``targets``."""
    targets = check_finite(targets, "targets")

    def values(x, idx):
        return 0.5 * np.sum((x - targets[idx]) ** 2, axis=1)

    def grads(X, idx):
        return np.subtract(X, block_rows(targets, idx, len(X)), order="C")

    return FiniteSumProblem(targets.shape[1], targets.shape[0], values, grads)


def logistic_value(p: LogisticL1, x: np.ndarray, s: Sample) -> float:
    """The loss of row ``s.z`` of ``p`` at x: log(1 + exp(m)) for the margin
    m = −y_i a_i·x that ``p`` computes."""
    return float(_softplus(p._margin(x, s.z)))
