"""Benchmark problems and their stochastic oracle bundles.

Two oracle modes exist.  Oblivious problems draw z from a fixed law (a
data-row index, a noise vector); the gradient sample ∇F̃(x;z) is unbiased
for ∇F(x) directly.  Non-oblivious problems draw z from p(z;x): here only
the multilinear family, where z is a random subset with independent
inclusion probabilities x_i, F̃(x;z) = f(z) is x-free, and all gradient
information flows through the log-density derivatives.

Small-d exact oracles (full subset enumeration) back every estimator test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_finite

__all__ = [
    "Sample",
    "StochasticProblem",
    "five_term_estimate",
    "Quadratic",
    "NQP",
    "LogisticL1",
    "RobustLRMR",
    "MultilinearProblem",
    "FiniteSumProblem",
    "SetFunction",
    "Modular",
    "FacilityLocation",
    "Coverage",
    "ConcaveOverModular",
    "LogDet",
    "TableSetFunction",
    "make_facility_location",
    "make_coverage",
    "make_concave_over_modular",
    "make_logdet",
    "make_random_bounded",
    "multilinear_exact",
    "multilinear_value",
    "multilinear_grad_hess",
    "ordered_means",
    "EnumerationBudgetError",
]

BERNOULLI_EPS = 1e-9
ENUM_MAX_D = 20


class EnumerationBudgetError(ValueError):
    """Exact multilinear enumeration requested beyond the 2^20 budget."""


@dataclass
class Sample:
    """One stochastic oracle draw and what has been evaluated from it.

    ``z`` is instance-defined (row index, subset indicator, noise vector).
    A multilinear draw also keeps the point ``x`` it was drawn at and the
    clamped inclusion probabilities ``q`` it was drawn with, and ``fz``
    holds f(z) once it has been evaluated: f(z) does not depend on x, so
    one draw needs it once.
    """

    z: object
    x: np.ndarray | None = None
    q: np.ndarray | None = None
    fz: float | None = None


def five_term_estimate(val: float, grad: np.ndarray, logp_grad: np.ndarray,
                       u: np.ndarray, hess_u: np.ndarray,
                       logp_hess_u: np.ndarray) -> np.ndarray:
    """The one-sample Hessian-vector estimate from one draw's oracles:

    F̃ ⟨∇log p, u⟩ ∇log p + ∇²F̃ u + ⟨∇log p, u⟩ ∇F̃ + F̃ ∇²log p u
    + ⟨∇F̃, u⟩ ∇log p,

    with ``hess_u`` standing for ∇²F̃ u and ``logp_hess_u`` for ∇²log p u
    (exact products, or the central differences of the grad-diff variant).
    """
    lg_u = float(logp_grad @ u)
    return (val * lg_u * logp_grad + hess_u + lg_u * grad + val * logp_hess_u
            + float(grad @ u) * logp_grad)


class StochasticProblem:
    """Oracle bundle; subclasses fill in the per-sample and exact oracles.

    ``samples_drawn`` counts calls to :meth:`sample`, giving the one-sample
    accounting used by solver tests.
    """

    dim: int
    mode: str  # "oblivious" or "nonoblivious"

    def __init__(self):
        self.samples_drawn = 0

    # --- sampling ------------------------------------------------------
    def sample(self, x: np.ndarray, rng: RngStream) -> Sample:
        self.samples_drawn += 1
        return self._sample(np.asarray(x, dtype=float), rng)

    def _sample(self, x, rng) -> Sample:
        raise NotImplementedError

    # --- per-sample oracles -------------------------------------------
    def value(self, x: np.ndarray, s: Sample) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        raise NotImplementedError

    def hess_vec(self, x: np.ndarray, s: Sample, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def logp_grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        if self.mode == "oblivious":
            return np.zeros(self.dim)
        raise NotImplementedError

    def logp_hess_vec(self, x: np.ndarray, s: Sample, u: np.ndarray) -> np.ndarray:
        if self.mode == "oblivious":
            return np.zeros(self.dim)
        raise NotImplementedError

    def hessian_estimate(self, x: np.ndarray, s: Sample, u: np.ndarray) -> np.ndarray:
        """One-sample estimate of ∇²F(x) u from z ∼ p(·;x): the
        :func:`five_term_estimate` of the sample's oracles at x.  Its
        expectation is ∇²F(x) u because the second derivative of the
        density satisfies ∇²p = p (∇log p ∇log pᵀ + ∇²log p).
        """
        return five_term_estimate(self.value(x, s), self.grad(x, s),
                                  self.logp_grad(x, s), u, self.hess_vec(x, s, u),
                                  self.logp_hess_vec(x, s, u))

    def one_sample_grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        """Unbiased one-sample gradient: ∇F̃(x;z) + F̃(x;z)∇log p(z;x)."""
        g = self.grad(x, s)
        if self.mode == "nonoblivious":
            g = g + self.value(x, s) * self.logp_grad(x, s)
        return g

    # --- exact reference (tests / logging) ----------------------------
    def exact_value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def exact_grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exact_value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(F(x), ∇F(x)) from one call, for logging."""
        return self.exact_value(x), self.exact_grad(x)


class Quadratic(StochasticProblem):
    """F(x) = 0.5‖x − x*‖² with additive Gaussian gradient noise.

    F̃(x;z) = 0.5‖x − x*‖² + z·x, z ∼ N(0, σ²I), so ∇F̃ = (x − x*) + z and
    the Hessian is the identity for every z.
    """

    mode = "oblivious"

    def __init__(self, target: np.ndarray, noise_sigma: float = 0.0):
        super().__init__()
        self.target = check_finite(target, "quadratic target")
        self.noise_sigma = float(noise_sigma)
        self.dim = self.target.size

    def _sample(self, x, rng):
        if self.noise_sigma == 0.0:
            return Sample(z=np.zeros(self.dim))
        return Sample(z=self.noise_sigma * rng.normal(size=self.dim))

    def value(self, x, s):
        return 0.5 * float(np.sum((x - self.target) ** 2)) + float(s.z @ x)

    def grad(self, x, s):
        return (x - self.target) + s.z

    def hess_vec(self, x, s, u):
        return np.asarray(u, dtype=float).copy()

    def exact_value(self, x):
        return 0.5 * float(np.sum((x - self.target) ** 2))

    def exact_grad(self, x):
        return x - self.target


class NQP(StochasticProblem):
    """Non-convex quadratic F(x) = ½xᵀHx + bᵀx with entrywise non-positive H.

    H entries are negated absolute standard normals and b = −Hᵀ1, which
    makes ∇F = ½(H+Hᵀ)x + b non-negative on [0,1]^d (monotone DR structure).
    Stochastic gradients add N(0, σ²I) noise.
    """

    mode = "oblivious"

    def __init__(self, dim: int, rng: RngStream, noise_sigma: float = 0.0,
                 H: np.ndarray | None = None):
        super().__init__()
        self.dim = int(dim)
        if H is None:
            H = -np.abs(rng.normal(size=(self.dim, self.dim)))
        H = check_finite(H, "NQP matrix")
        if np.any(H > 0):
            raise ValueError("NQP requires entrywise non-positive H")
        self.H = H
        self.b = -H.T @ np.ones(self.dim)
        self.Hsym = 0.5 * (H + H.T)
        self.noise_sigma = float(noise_sigma)

    def _sample(self, x, rng):
        if self.noise_sigma == 0.0:
            return Sample(z=np.zeros(self.dim))
        return Sample(z=self.noise_sigma * rng.normal(size=self.dim))

    def value(self, x, s):
        return self.exact_value(x) + float(s.z @ x)

    def grad(self, x, s):
        return self.exact_grad(x) + s.z

    def hess_vec(self, x, s, u):
        return self.Hsym @ np.asarray(u, dtype=float)

    def exact_value(self, x):
        return 0.5 * float(x @ self.H @ x) + float(self.b @ x)

    def exact_grad(self, x):
        return self.Hsym @ x + self.b


def _sigmoid(t):
    # 1/(1 + e^-t) for t >= 0 and e^t/(1 + e^t) below, with e = e^-|t| shared
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class LogisticL1(StochasticProblem):
    """Binary logistic loss F(w) = (1/n) Σ log(1 + exp(−y_i w·a_i)).

    Samples are uniform row indices (oblivious).  Built from arrays or a
    dense CSV whose first column is the ±1 label.
    """

    mode = "oblivious"

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        super().__init__()
        self.A = check_finite(features, "feature matrix")
        self.y = check_finite(labels, "labels")
        if self.A.ndim != 2 or self.y.shape != (self.A.shape[0],):
            raise ValueError("features must be (n,d); labels length n")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be +/-1")
        self.n, self.dim = self.A.shape

    @classmethod
    def from_csv(cls, path: str) -> "LogisticL1":
        try:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as e:
            raise ValueError(f"bad logistic CSV {path!r}: {e}") from e
        if raw.shape[1] < 2:
            raise ValueError("logistic CSV needs a label column plus features")
        return cls(raw[:, 1:], raw[:, 0])

    def _sample(self, x, rng):
        return Sample(z=int(rng.integers(self.n)))

    def _margin(self, x, i):
        return -self.y[i] * float(self.A[i] @ x)

    def value(self, x, s):
        return float(np.logaddexp(0.0, self._margin(x, s.z)))

    def grad(self, x, s):
        i = s.z
        sig = _sigmoid(np.array([self._margin(x, i)]))[0]
        return -self.y[i] * sig * self.A[i]

    def hess_vec(self, x, s, u):
        i = s.z
        sig = _sigmoid(np.array([self._margin(x, i)]))[0]
        return sig * (1 - sig) * float(self.A[i] @ u) * self.A[i]

    def exact_value(self, x):
        return float(np.mean(np.logaddexp(0.0, -self.y * (self.A @ x))))

    def exact_grad(self, x):
        sig = _sigmoid(-self.y * (self.A @ x))
        return -(self.A.T @ (self.y * sig)) / self.n


class RobustLRMR(StochasticProblem):
    """Robust low-rank matrix recovery on observed entries.

    The variable is a rows×cols matrix flattened to a vector; the loss per
    observed entry is ψ(r) = 1 − exp(−r²/2σ) with residual r = X_ij − R_ij,
    averaged over the observation set.  Samples are uniform observation
    indices.
    """

    mode = "oblivious"

    def __init__(self, rows: int, cols: int, observed: np.ndarray, sigma: float = 1.0):
        super().__init__()
        self.rows, self.cols = int(rows), int(cols)
        self.dim = self.rows * self.cols
        obs = np.asarray(observed, dtype=float)
        if obs.ndim != 2 or obs.shape[1] != 3:
            raise ValueError("observed must be (k,3) rows of (i, j, rating)")
        self.idx = (obs[:, 0].astype(int) * self.cols + obs[:, 1].astype(int))
        if np.any(self.idx < 0) or np.any(self.idx >= self.dim):
            raise ValueError("observation index out of range")
        self.ratings = obs[:, 2]
        self.sigma = float(sigma)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        self.n_obs = self.idx.size

    @classmethod
    def from_csv(cls, path: str, rows: int, cols: int, sigma: float = 1.0):
        try:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as e:
            raise ValueError(f"bad ratings CSV {path!r}: {e}") from e
        return cls(rows, cols, raw, sigma)

    def _psi(self, r):
        return 1.0 - np.exp(-(r**2) / (2.0 * self.sigma))

    def _psi_d1(self, r):
        return (r / self.sigma) * np.exp(-(r**2) / (2.0 * self.sigma))

    def _psi_d2(self, r):
        e = np.exp(-(r**2) / (2.0 * self.sigma))
        return e * (1.0 / self.sigma - r**2 / self.sigma**2)

    def _sample(self, x, rng):
        return Sample(z=int(rng.integers(self.n_obs)))

    def value(self, x, s):
        r = x[self.idx[s.z]] - self.ratings[s.z]
        return float(self._psi(r))

    def grad(self, x, s):
        k = s.z
        g = np.zeros(self.dim)
        g[self.idx[k]] = self._psi_d1(x[self.idx[k]] - self.ratings[k])
        return g

    def hess_vec(self, x, s, u):
        k = s.z
        out = np.zeros(self.dim)
        out[self.idx[k]] = self._psi_d2(x[self.idx[k]] - self.ratings[k]) * u[self.idx[k]]
        return out

    def exact_value(self, x):
        return float(np.mean(self._psi(x[self.idx] - self.ratings)))

    def exact_grad(self, x):
        g = np.zeros(self.dim)
        np.add.at(g, self.idx, self._psi_d1(x[self.idx] - self.ratings) / self.n_obs)
        return g


# --------------------------------------------------------------------------
# set functions and multilinear extensions
# --------------------------------------------------------------------------


class SetFunction:
    """Real-valued function of subsets of a ground set of size d.

    Subsets are boolean membership vectors.  ``bound`` is (an upper bound
    on) sup_S |f(S)|.
    """

    ground_size: int

    def __call__(self, members: np.ndarray) -> float:
        return float(self.batch(np.asarray(members)[None])[0])

    def batch(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate f on each row of a (k, d) boolean mask array.  A subclass
        defines this or ``__call__``, which each default computes by the other."""
        return np.array([self(m) for m in masks])

    @property
    def bound(self) -> float:
        raise NotImplementedError


class Modular(SetFunction):
    def __init__(self, weights):
        self.w = check_finite(weights, "modular weights")
        self.ground_size = self.w.size

    def __call__(self, members):
        return float(self.w[np.asarray(members, dtype=bool)].sum())

    def batch(self, masks):
        return np.asarray(masks, dtype=float) @ self.w

    @property
    def bound(self):
        return float(np.sum(np.abs(self.w)))


class FacilityLocation(SetFunction):
    """f(S) = Σ_clients max_{i∈S} W[client, i], with f(∅) = 0."""

    def __init__(self, W):
        self.W = check_finite(W, "facility weights")
        if np.any(self.W < 0):
            raise ValueError("facility weights must be non-negative")
        self.ground_size = self.W.shape[1]

    def batch(self, masks):
        masks = np.asarray(masks, dtype=bool)
        scores = np.where(masks[:, None, :], self.W[None, :, :], 0.0)
        return scores.max(axis=2).sum(axis=1)

    @property
    def bound(self):
        return float(np.sum(np.max(self.W, axis=1)))


class Coverage(SetFunction):
    """Probabilistic coverage f(S) = Σ_j (1 − ∏_{a∈S}(1 − p_a(j)))."""

    def __init__(self, P):
        # P[a, j]: probability element a covers topic j
        self.P = check_finite(P, "coverage probabilities")
        if np.any(self.P < 0) or np.any(self.P > 1):
            raise ValueError("coverage probabilities must lie in [0,1]")
        self.ground_size = self.P.shape[0]

    def batch(self, masks):
        masks = np.asarray(masks, dtype=bool)
        factors = np.where(masks[:, :, None], 1.0 - self.P[None, :, :], 1.0)
        return np.sum(1.0 - factors.prod(axis=1), axis=1)

    @property
    def bound(self):
        return float(self.P.shape[1])


class ConcaveOverModular(SetFunction):
    """f(S) = Σ_users sqrt(Σ_{j∈S} r[user, j])."""

    def __init__(self, R):
        self.R = check_finite(R, "ratings")
        if np.any(self.R < 0):
            raise ValueError("ratings must be non-negative")
        self.ground_size = self.R.shape[1]

    def batch(self, masks):
        return np.sqrt(self.R @ np.asarray(masks, dtype=float).T).sum(axis=0)

    @property
    def bound(self):
        return float(np.sum(np.sqrt(np.sum(self.R, axis=1))))


class TableSetFunction(SetFunction):
    """Set function given by an explicit table of 2^d values.

    Subset index is the bitmask sum of 2^i over members; handy for random
    bounded instances in property tests.
    """

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


class LogDet(SetFunction):
    """f(S) = log det(I + Sigma[S, S]) for a PSD kernel Sigma."""

    def __init__(self, Sigma):
        Sigma = check_finite(Sigma, "kernel")
        if not np.allclose(Sigma, Sigma.T, atol=1e-10):
            raise ValueError("kernel must be symmetric")
        evals = np.linalg.eigvalsh(Sigma)
        if evals.min() < -1e-8:
            raise ValueError("kernel must be positive semidefinite")
        self.Sigma = Sigma
        self.ground_size = Sigma.shape[0]
        self._bound = float(np.sum(np.log1p(np.maximum(evals, 0.0))))

    def __call__(self, members):
        members = np.asarray(members, dtype=bool)
        if not members.any():
            return 0.0
        sub = self.Sigma[np.ix_(members, members)]
        sign, logdet = np.linalg.slogdet(np.eye(sub.shape[0]) + sub)
        return float(logdet)

    @property
    def bound(self):
        return self._bound


# --- exact multilinear oracles --------------------------------------------

#: Subset-weight table entries built at once; a stack of points is
#: processed in row blocks of at most this many entries (one row at d = 20).
WEIGHT_BLOCK_ENTRIES = 2**20


def _all_masks(d: int) -> np.ndarray:
    ints = np.arange(2**d, dtype=np.uint32)
    return (ints[:, None] >> np.arange(d)[None, :]) & 1 == 1


def _all_values(f: SetFunction) -> np.ndarray:
    # cached on the instance: set functions are immutable after construction
    vals = getattr(f, "_enum_vals", None)
    if vals is None:
        if f.ground_size > ENUM_MAX_D:
            raise EnumerationBudgetError(
                f"d={f.ground_size} exceeds enumeration budget {ENUM_MAX_D}"
            )
        vals = f.batch(_all_masks(f.ground_size))
        f._enum_vals = vals
    return vals


def _multilinear_rows(vals: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F at each row of a (k, d) stack, from the 2^d table ``vals``.

    Row r's weight for subset S (bit i of the index set iff i ∈ S) is
    Π_{i∈S} x_ri Π_{i∉S} (1 − x_ri), multiplied out in coordinate order by
    doubling: coordinate i splits the first 2^i weights into the halves
    without and with i.  The products and the per-row ``np.vecdot`` round
    exactly as a per-point mask product and ``vals @ w`` do.
    """
    k, d = X.shape
    out = np.empty(k)
    rows = max(1, WEIGHT_BLOCK_ENTRIES >> d)
    W = np.empty((min(k, rows), 2**d))
    for lo in range(0, k, rows):
        Xb = X[lo:lo + rows]
        w = W[:len(Xb)]
        w[:, 0] = 1.0
        for i in range(d):
            h = 1 << i
            np.multiply(w[:, :h], Xb[:, i:i + 1], out=w[:, h:2 * h])
            w[:, :h] *= 1.0 - Xb[:, i:i + 1]
        out[lo:lo + rows] = np.vecdot(w, vals)
    return out


def multilinear_exact(f: SetFunction, x: np.ndarray):
    """Exact multilinear extension F(x) = Σ_S f(S) Π x_i Π (1−x_j).

    A ``(d,)`` point gives a float; a ``(k, d)`` stack gives the ``(k,)``
    values of its rows.
    """
    x = check_finite(x, "multilinear point")
    d = f.ground_size
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"dimension mismatch: need (d,) or (k, d) with d={d}, "
                         f"got {x.shape}")
    F = _multilinear_rows(_all_values(f), x.reshape(-1, d))
    return float(F[0]) if x.ndim == 1 else F


def _pinned(x: np.ndarray, pins) -> np.ndarray:
    """Copies of x, one per row of the pins: row r sets x[cols[r]] = b for
    each (cols, b) in ``pins``."""
    Y = np.tile(x, (len(pins[0][0]), 1))
    rows = np.arange(len(Y))
    for cols, b in pins:
        Y[rows, cols] = b
    return Y


def multilinear_grad_hess(f: SetFunction, x: np.ndarray, want_hess: bool = True):
    """(F, gradF, hessF) of the multilinear extension by coordinate pinning.

    ∂F/∂x_i = F(x|x_i=1) − F(x|x_i=0); the mixed second derivative pins two
    coordinates (the diagonal is zero by multilinearity).  All pinned points
    are evaluated as one stack.
    """
    x = check_finite(x, "multilinear point")
    d = f.ground_size
    if x.shape != (d,):
        raise ValueError("dimension mismatch")
    diag = np.arange(d)
    I, J = np.triu_indices(d, 1)
    stacks = [x[None, :], _pinned(x, [(diag, 1.0)]), _pinned(x, [(diag, 0.0)])]
    if want_hess:
        stacks += [_pinned(x, [(I, bi), (J, bj)])
                   for bi, bj in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))]
    vals = _multilinear_rows(_all_values(f), np.concatenate(stacks))
    F, F1, F0 = float(vals[0]), vals[1:d + 1], vals[d + 1:2 * d + 1]
    if not want_hess:
        return F, F1 - F0, None
    F11, F10, F01, F00 = vals[2 * d + 1:].reshape(4, len(I))
    hess = np.zeros((d, d))
    hess[I, J] = hess[J, I] = F11 - F10 - F01 + F00
    return F, F1 - F0, hess


def multilinear_value(f: SetFunction, x: np.ndarray, rng: RngStream | None = None,
                      n_samples: int = 200) -> float:
    """F(x) at one (d,) point: exact enumeration when d fits the budget,
    else sample average."""
    d = f.ground_size
    if np.shape(x) != (d,):
        raise ValueError("dimension mismatch")
    if d <= ENUM_MAX_D:
        return multilinear_exact(f, x)
    if rng is None:
        raise ValueError("rng required for sampled multilinear values")
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    draws = rng.random((n_samples, d)) < x[None, :]
    return float(np.mean(f.batch(draws)))


class MultilinearProblem(StochasticProblem):
    """Non-oblivious oracle for a multilinear extension.

    z is a subset drawn with independent inclusion probabilities x_i
    (clamped into [ε, 1−ε]).  F̃(x;z) = f(z) does not depend on x, so the
    gradient and Hessian of F̃ vanish and the score-function terms carry
    everything.
    """

    mode = "nonoblivious"

    def __init__(self, f: SetFunction):
        super().__init__()
        self.f = f
        self.dim = f.ground_size

    def _probs(self, x):
        # the least and greatest coordinate answer as the per-coordinate
        # tests do, a NaN included (it passes both)
        if (np.minimum.reduce(x, initial=np.inf) < -1e-6
                or np.maximum.reduce(x, initial=-np.inf) > 1 + 1e-6):
            raise ValueError("multilinear sampling point outside [0,1]^d")
        return np.minimum(np.maximum(x, BERNOULLI_EPS), 1.0 - BERNOULLI_EPS)

    def _sample(self, x, rng):
        q = self._probs(x)
        return Sample(z=rng.random(self.dim) < q, x=x, q=q)

    def _probs_for(self, x, s):
        """q(x), taken from the draw when x is the point s was drawn at (the
        same array: a point is never changed in place once sampled)."""
        return s.q if x is s.x else self._probs(x)

    def value(self, x, s):
        if s.fz is None:
            s.fz = float(self.f(s.z))
        return s.fz

    def grad(self, x, s):
        return np.zeros(self.dim)

    def hess_vec(self, x, s, u):
        return np.zeros(self.dim)

    @staticmethod
    def _score(q, z):
        """∇log p(z; x) from the clamped probabilities q."""
        return np.where(z, 1.0 / q, -1.0 / (1.0 - q))

    @staticmethod
    def _score_hess_diag(q, z):
        """The diagonal of ∇²log p(z; x), which is a diagonal matrix."""
        return np.where(z, -1.0 / q**2, -1.0 / (1.0 - q) ** 2)

    def logp_grad(self, x, s):
        return self._score(self._probs_for(x, s), np.asarray(s.z, dtype=bool))

    def logp_hess_vec(self, x, s, u):
        diag = self._score_hess_diag(self._probs_for(x, s), np.asarray(s.z, dtype=bool))
        return diag * np.asarray(u, dtype=float)

    def hessian_estimate(self, x, s, u):
        """The five-term estimate without its three zero terms (those built
        from ∇F̃ and ∇²F̃): f(z) (⟨∇log p, u⟩ ∇log p + ∇²log p u).  The
        trailing + 0.0 gives the +0.0 that adding the zero terms gives where
        both remaining terms are zero, so results are bit-identical."""
        q = self._probs_for(x, s)
        z = np.asarray(s.z, dtype=bool)
        val = self.value(x, s)
        lg = self._score(q, z)
        lg_u = float(lg @ u)
        return val * lg_u * lg + val * (self._score_hess_diag(q, z) * u) + 0.0

    def one_sample_grad(self, x, s):
        """f(z) ∇log p(z; x): the generic ∇F̃ + F̃ ∇log p with ∇F̃ = 0.  The
        trailing + 0.0 gives the +0.0 that adding the zero gradient gives
        where f(z) ∇log p is −0.0, so results are bit-identical."""
        z = np.asarray(s.z, dtype=bool)
        return self.value(x, s) * self._score(self._probs_for(x, s), z) + 0.0

    def exact_value(self, x):
        return multilinear_exact(self.f, x)

    def exact_grad(self, x):
        return self.exact_value_grad(x)[1]

    def exact_value_grad(self, x):
        """F is row 0 of the stack the pinned gradient evaluates, and rounds
        as :func:`multilinear_exact` does."""
        F, g, _ = multilinear_grad_hess(self.f, x, want_hess=False)
        return F, g

    def domain_constants(self, box) -> dict:
        """Analytic (B, G, L, L2) valid on [lo, hi]^d, the box ``box``
        widened by 1e-2 on each side and kept 1e-3 inside (0, 1).

        The bounds cover the score-function terms: the log-density gradient
        has coordinates at most m = max(1/lo, 1/(1−hi)) in magnitude, its
        Hessian diagonal at most m², and the third derivative at most 2m³.
        """
        lo = max(float(np.min(box.lower)) - 1e-2, 1e-3)
        hi = min(float(np.max(box.upper)) + 1e-2, 1 - 1e-3)
        if not lo < hi:
            raise ValueError("need a box with lower < upper inside [0, 1]")
        m = max(1.0 / lo, 1.0 / (1.0 - hi))
        d = self.dim
        B = self.f.bound
        return {
            "B": B,
            "G": B * m * np.sqrt(d),
            "L": B * m * m * (1 + d),
            "L2": 2 * B * m**3 * (1 + d) ** 1.5,
        }


#: The ``idx`` that names every component 0..N-1 in order.  Oracles read it
#: through a basic slice, which is a view: no gather copies the data.
FULL_RANGE = slice(None)


def ordered_means(rows, M=1):
    """Row m is the mean of block m of ``rows`` (M equal consecutive blocks).

    add.accumulate adds the rows strictly in order for every shape (add.reduce
    sums a lone column pairwise); + 0.0 turns a column of −0.0 into +0.0, as a
    loop starting from zeros does.
    """
    rows = rows.reshape(M, -1, rows.shape[-1])
    return (np.add.accumulate(rows, axis=1)[:, -1] + 0.0) / rows.shape[1]


class FiniteSumProblem:
    """Deterministic finite sum f(x) = (1/N) Σ f_i(x) for the simulator.

    The components are given by two vectorized oracles over ``idx``, an
    array of component numbers (repeats allowed) or :data:`FULL_RANGE`:
    ``values(x, idx)`` returns the array of f_i(x), one entry per component
    named, and ``grads(x, idx)`` the array of ∇f_i(x), one row of length
    ``dim`` per component named.  ``x`` is one point ``(dim,)``; ``grads``
    also takes a stack ``(len(idx), dim)`` holding the point for each entry
    of ``idx``.  An oracle reads :data:`FULL_RANGE` without a gather, which
    is how :meth:`value` and :meth:`full_grad` make their full passes.

    :meth:`batch_grad` averages over index blocks, for one point or for a
    stack of M points at once (the simulator's M replicas).
    """

    def __init__(self, dim: int, n: int, values, grads):
        if n < 1:
            raise ValueError("need a nonempty finite sum")
        self.dim = int(dim)
        self.n = int(n)
        self.values = values
        self.grads = grads

    @classmethod
    def from_logistic(cls, p: LogisticL1) -> "FiniteSumProblem":
        """Components are the rows of ``p``: f_i(w) = log(1 + exp(−y_i w·a_i)).

        Margins use ``np.vecdot`` row by row, which rounds exactly as the
        per-sample ``a_i @ w`` does (a matrix-vector product does not).
        """
        A, y = p.A, p.y

        def values(x, idx):
            return np.logaddexp(0.0, -y[idx] * np.vecdot(A[idx], x))

        def grads(x, idx):
            a, yi = A[idx], y[idx]
            return (-yi * _sigmoid(-yi * np.vecdot(a, x)))[:, None] * a

        return cls(p.dim, p.n, values, grads)

    @classmethod
    def from_quadratics(cls, targets: np.ndarray) -> "FiniteSumProblem":
        """Components f_i(x) = 0.5‖x − t_i‖² for the rows t_i of ``targets``."""
        targets = check_finite(targets, "targets")

        def values(x, idx):
            return 0.5 * np.sum((x - targets[idx]) ** 2, axis=1)

        def grads(x, idx):
            return x - targets[idx]

        return cls(targets.shape[1], targets.shape[0], values, grads)

    def batch_grad(self, x, idx):
        """Mean of ∇f_i over ``idx``, summed in index order.

        ``x`` is one point ``(dim,)``, giving the ``(dim,)`` mean over all of
        ``idx``, or a stack ``(M, dim)``: then ``idx`` is M equal consecutive
        blocks and row m of the ``(M, dim)`` result is the mean over block m
        at ``x[m]``, bit for bit what a call on ``x[m]`` and block m gives.
        """
        idx = np.asarray(idx)
        X = np.reshape(x, (-1, self.dim))   # one point is a stack of one
        M = len(X)
        if idx.size == 0 or idx.size % M:
            raise ValueError(f"{idx.size} indices do not split into {M} "
                             "nonempty equal blocks")
        points = np.repeat(X, idx.size // M, axis=0)  # X[m] for each of block m
        G = ordered_means(self.grads(points, idx), M)
        return G if np.ndim(x) == 2 else G[0]

    def full_grad(self, x):
        return ordered_means(self.grads(x, FULL_RANGE))[0]

    def value(self, x):
        return float(np.mean(self.values(x, FULL_RANGE)))


def make_facility_location(d: int, n_clients: int, rng: RngStream) -> FacilityLocation:
    return FacilityLocation(rng.uniform(0.0, 1.0, size=(n_clients, d)))


def make_coverage(d: int, n_topics: int, rng: RngStream) -> Coverage:
    return Coverage(rng.uniform(0.0, 0.8, size=(d, n_topics)))


def make_concave_over_modular(d: int, n_users: int, rng: RngStream) -> ConcaveOverModular:
    return ConcaveOverModular(rng.uniform(0.0, 5.0, size=(n_users, d)))


def make_logdet(d: int, rng: RngStream) -> LogDet:
    A = rng.normal(size=(d, d))
    return LogDet(A @ A.T / d)


def make_random_bounded(d: int, rng: RngStream, scale: float = 1.0) -> TableSetFunction:
    return TableSetFunction(rng.uniform(-scale, scale, size=2**d))
