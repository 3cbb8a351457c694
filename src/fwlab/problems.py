"""Benchmark problems and their stochastic oracle bundles.

Each family computes its own one-sample estimates.  Oblivious problems draw
z from a fixed law (a data-row index, a noise vector): the one-sample
gradient is ∇F̃(x;z) and the Hessian estimate ∇²F̃(x;z)u, unbiased for
∇F(x) and ∇²F(x)u directly.  The one non-oblivious family is the
multilinear extension, which draws z from p(z;x), a random subset with
independent inclusion probabilities x_i.  Its F̃(x;z) = f(z) is x-free, so
the score ∇log p carries everything: the gradient is f(z)∇log p and the
Hessian estimate f(z)(⟨∇log p, u⟩∇log p + ∇²log p u).

Small-d exact oracles (full subset enumeration) back every estimator test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_finite

__all__ = [
    "Sample",
    "StochasticProblem",
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
    "make_facility_location",
    "make_coverage",
    "make_concave_over_modular",
    "make_logdet",
    "multilinear_exact",
    "multilinear_value",
    "sampled_value",
    "multilinear_grad_hess",
    "ordered_means",
    "ordered_dots",
    "block_rows",
    "EnumerationBudgetError",
]

BERNOULLI_EPS = 1e-9
ENUM_MAX_D = 20
_LOGDET_CHUNK = 1 << 20   # matrix entries per stacked slogdet call (8 MB)


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


class StochasticProblem:
    """Oracle bundle; subclasses fill in the per-sample and exact oracles.

    ``one_sample_grad`` and ``hessian_estimate`` are the one-sample
    estimates of ∇F(x) and ∇²F(x)u: ∇F̃(x;z) and ∇²F̃(x;z)u on an oblivious
    problem, the score-function forms on the multilinear family.

    ``samples_drawn`` counts calls to :meth:`sample`, giving the one-sample
    accounting of the momentum driver, which zeroes it as a run starts.
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
    def one_sample_grad(self, x: np.ndarray, s: Sample) -> np.ndarray:
        """Unbiased one-sample estimate of ∇F(x)."""
        raise NotImplementedError

    def hessian_estimate(self, x: np.ndarray, s: Sample, u: np.ndarray) -> np.ndarray:
        """Unbiased one-sample estimate of ∇²F(x) u."""
        raise NotImplementedError

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

    def one_sample_grad(self, x, s):
        return (x - self.target) + s.z

    def hessian_estimate(self, x, s, u):
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

    def __init__(self, dim: int, rng: RngStream, noise_sigma: float = 0.0):
        super().__init__()
        self.dim = int(dim)
        self.H = H = -np.abs(rng.normal(size=(self.dim, self.dim)))
        self.b = -H.T @ np.ones(self.dim)
        self.Hsym = 0.5 * (H + H.T)
        self.noise_sigma = float(noise_sigma)

    _sample = Quadratic._sample   # the same N(0, σ²I) draw

    def one_sample_grad(self, x, s):
        return self.exact_grad(x) + s.z

    def hessian_estimate(self, x, s, u):
        return self.Hsym @ np.asarray(u, dtype=float)

    def exact_value(self, x):
        return 0.5 * float(x @ self.H @ x) + float(self.b @ x)

    def exact_grad(self, x):
        return self.Hsym @ x + self.b


def _sigmoid(t):
    # 1/(1 + e^-t) for t >= 0 and e^t/(1 + e^t) below, with e = e^-|t| shared
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _softplus(t):
    # log(1 + e^t) = max(t, 0) + log1p(e^-|t|): exp and log1p run through
    # numpy's SIMD loops, where logaddexp(0, t) calls libm per element
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class LogisticL1(StochasticProblem):
    """Binary logistic loss F(w) = (1/n) Σ log(1 + exp(−y_i w·a_i)).

    Samples are uniform row indices (oblivious).  Built from arrays or a
    dense CSV whose first column is the ±1 label.  Every margin a_i·w is
    :func:`ordered_dots` on a column-major copy of A, so a row's margin has
    the same bits alone, in a batch and on any host.
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
        self._cols = np.asfortranarray(self.A)   # each column contiguous

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
        return -self.y[i] * float(ordered_dots(self._cols[i], x))

    def one_sample_grad(self, x, s):
        i = s.z
        sig = _sigmoid(np.array([self._margin(x, i)]))[0]
        return -self.y[i] * sig * self.A[i]

    def hessian_estimate(self, x, s, u):
        i = s.z
        sig = _sigmoid(np.array([self._margin(x, i)]))[0]
        return sig * (1 - sig) * float(ordered_dots(self._cols[i], u)) * self.A[i]

    def exact_value(self, x):
        return float(np.mean(_softplus(-self.y * ordered_dots(self._cols, x))))

    def exact_grad(self, x):
        """−(1/n) Aᵀ(y σ), Aᵀv summed over the rows of A in order."""
        sig = _sigmoid(-self.y * ordered_dots(self._cols, x))
        return -ordered_means(self.A * (self.y * sig)[:, None])


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
        obs = check_finite(observed, "observations")
        if obs.ndim != 2 or obs.shape[1] != 3:
            raise ValueError("observed must be (k,3) rows of (i, j, rating)")
        if np.any(obs[:, :2] != np.round(obs[:, :2])):
            raise ValueError("observation indices must be integers")
        i, j = obs[:, 0].astype(int), obs[:, 1].astype(int)
        for what, index, size in (("row", i, self.rows), ("column", j, self.cols)):
            if np.any(index < 0) or np.any(index >= size):
                raise ValueError(f"observation {what} index outside 0..{size - 1}")
        self.idx = i * self.cols + j
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

    def one_sample_grad(self, x, s):
        k = s.z
        g = np.zeros(self.dim)
        g[self.idx[k]] = self._psi_d1(x[self.idx[k]] - self.ratings[k])
        return g

    def hessian_estimate(self, x, s, u):
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
        """f at one mask: ``batch`` on a stack of one."""
        return float(self.batch(np.asarray(members)[None])[0])

    def batch(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate f on each row of a (k, d) boolean mask array: the one
        evaluation each kind defines."""
        raise NotImplementedError

    def table(self) -> np.ndarray:
        """f on all 2^d subsets, subset S at index Σ_{i∈S} 2^i: ``batch`` on
        every mask.  A kind may build it another way, bit for bit the same."""
        return self.batch(_all_masks(self.ground_size))

    @property
    def bound(self) -> float:
        raise NotImplementedError


class Modular(SetFunction):
    def __init__(self, weights):
        self.w = check_finite(weights, "modular weights")
        self.ground_size = self.w.size

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

    def table(self):
        """``batch``'s table by subset doubling, in O(2^d k): row S holds each
        client's maximum over S from zeros, and coordinate i appends the rows
        S ∪ {i}.  A maximum of weights >= 0 does not round, so the rows are
        batch's, and so is the sum over clients."""
        best = np.empty((2**self.ground_size, self.W.shape[0]))
        best[0] = 0.0
        for i in range(self.ground_size):
            n = 1 << i
            np.maximum(best[:n], self.W[:, i], out=best[n:2 * n])
        return best.sum(axis=1)

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

    def table(self):
        """``batch``'s table by subset doubling, in O(2^d k): row S holds each
        topic's product of (1 − P[a]) over a ∈ S in coordinate order, from
        ones, and coordinate i appends the rows S ∪ {i}.  batch multiplies
        the same factors in the same order, its 1.0s changing nothing."""
        miss = np.empty((2**self.ground_size, self.P.shape[1]))
        miss[0] = 1.0
        keep = 1.0 - self.P
        for i in range(self.ground_size):
            n = 1 << i
            np.multiply(miss[:n], keep[i], out=miss[n:2 * n])
        return np.sum(np.subtract(1.0, miss, out=miss), axis=1)

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

    def batch(self, masks):
        """log det(I + Sigma[S, S]) per mask, the empty set 0.0: one stacked
        slogdet per subset size k, on at most ``_LOGDET_CHUNK`` entries at a
        time.  slogdet factors each matrix of a stack alone, so a mask gets
        the bits of its own call."""
        masks = np.asarray(masks, dtype=bool)
        out = np.zeros(len(masks))
        sizes = masks.sum(axis=1)
        for k in np.unique(sizes[sizes > 0]):
            rows = np.flatnonzero(sizes == k)
            step = max(1, _LOGDET_CHUNK // (k * k))
            for lo in range(0, rows.size, step):
                r = rows[lo:lo + step]
                members = np.nonzero(masks[r])[1].reshape(-1, k)
                sub = self.Sigma[members[:, :, None], members[:, None, :]]
                out[r] = np.linalg.slogdet(np.eye(k) + sub)[1]
        return out

    @property
    def bound(self):
        return self._bound


# --- exact multilinear oracles --------------------------------------------

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
        vals = f.table()
        f._enum_vals = vals
    return vals


def _multilinear_rows(vals: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Σ_S f(S) Π_i P[r, i, [i ∈ S]] at each row r of a (k, d, 2) factor
    stack, from the 2^d table ``vals`` (bit i of S set iff i ∈ S).

    The factors (1 − x_i, x_i) make a row F(x); swapping a pair for its
    derivative (−1, 1) makes it ∂F/∂x_i, and two swapped pairs a mixed
    second derivative.  With the low m = ⌊d/2⌋ coordinates and the high
    d − m, ``vals`` is the (2^(d−m), 2^m) matrix V of f(S_hi ∪ S_lo) and a
    row is hi @ (V @ lo), where lo and hi are the factor products of the
    two halves: one gemv and one dot per row.  The products are multiplied
    out in coordinate order by doubling, both halves at once: coordinate i
    of a half splits its first 2^i products into those without and with i.
    A row rounds as it does alone, at any k (the stack is never one gemm).
    """
    k, d, _ = P.shape
    m = d // 2
    halves = P[:, :2 * m].reshape(k, 2, m, 2)
    W = np.ones((k, 2, 1))
    for i in range(m):
        W = (halves[:, :, i, :, None] * W[:, :, None, :]).reshape(k, 2, 2 << i)
    lo, hi = W[:, 0], W[:, 1]
    if d % 2:                                 # the high half's last coordinate
        hi = (P[:, -1, :, None] * hi[:, None, :]).reshape(k, 2 << m)
    V = vals.reshape(2**(d - m), 2**m)
    return np.vecdot(np.matmul(V, lo[:, :, None])[:, :, 0], hi)


def multilinear_exact(f: SetFunction, x: np.ndarray):
    """Exact multilinear extension F(x) = Σ_S f(S) Π x_i Π (1−x_j).

    A ``(d,)`` point gives a float; a ``(k, d)`` stack gives the ``(k,)``
    values of its rows.  The sum is the contraction of
    :func:`_multilinear_rows` on the factors (1 − x_i, x_i), which fixes
    its rounding: a row has the bits of that point evaluated alone.
    """
    x = check_finite(x, "multilinear point")
    d = f.ground_size
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"dimension mismatch: need (d,) or (k, d) with d={d}, "
                         f"got {x.shape}")
    X = x.reshape(-1, d)
    pairs = np.empty(X.shape + (2,))
    np.subtract(1.0, X, out=pairs[..., 0])
    pairs[..., 1] = X
    F = _multilinear_rows(_all_values(f), pairs)
    return float(F[0]) if x.ndim == 1 else F


def multilinear_grad_hess(f: SetFunction, x: np.ndarray, want_hess: bool = True):
    """(F, gradF, hessF) of the multilinear extension: the rows of one
    :func:`_multilinear_rows` stack, which defines their rounding.

    Row 0 holds x's factors (1 − x_i, x_i) and gives F; row 1 + i swaps
    coordinate i's pair for its derivative (−1, 1) and gives ∂F/∂x_i; with
    ``want_hess``, one row per pair i < j swaps both pairs and gives
    ∂²F/∂x_i∂x_j (the diagonal is zero by multilinearity).
    """
    x = check_finite(x, "multilinear point")
    d = f.ground_size
    if x.shape != (d,):
        raise ValueError("dimension mismatch")
    diag = np.arange(d)
    I, J = np.triu_indices(d, 1) if want_hess else (diag[:0], diag[:0])
    P = np.tile(np.stack([1.0 - x, x], axis=-1), (1 + d + I.size, 1, 1))
    P[1 + diag, diag] = (-1.0, 1.0)
    pair_rows = np.arange(1 + d, len(P))
    P[pair_rows, I] = P[pair_rows, J] = (-1.0, 1.0)
    rows = _multilinear_rows(_all_values(f), P)
    hess = None
    if want_hess:
        hess = np.zeros((d, d))
        hess[I, J] = hess[J, I] = rows[1 + d:]
    return float(rows[0]), rows[1:1 + d], hess


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
    return sampled_value(f, x, n_samples, rng)


def sampled_value(f: SetFunction, x: np.ndarray, n: int, rng: RngStream) -> float:
    """The mean of f over n subsets drawn with independent inclusion
    probabilities clip(x, 0, 1), from one ``rng.random((n, d))`` call."""
    q = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return float(np.mean(f.batch(rng.random((n, q.size)) < q)))


class MultilinearProblem(StochasticProblem):
    """Non-oblivious oracle for a multilinear extension.

    z is a subset drawn with independent inclusion probabilities x_i
    (clamped into [ε, 1−ε]).  F̃(x;z) = f(z) does not depend on x, so its
    gradient and Hessian vanish and the score ∇log p(z;x) carries
    everything: the one-sample gradient is f(z)∇log p and the Hessian
    estimate f(z)(⟨∇log p, u⟩∇log p + ∇²log p u), whose expectation is
    ∇²F(x)u because ∇²p = p (∇log p ∇log pᵀ + ∇²log p).
    """

    mode = "nonoblivious"

    def __init__(self, f: SetFunction):
        super().__init__()
        self.f = f
        self.dim = f.ground_size
        self._pows = 1 << np.arange(self.dim)   # z @ _pows: z's index in the table

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
        """f(z), read from the 2^d table of the exact oracles."""
        if s.fz is None:
            s.fz = float(_all_values(self.f)[s.z @ self._pows])
        return s.fz

    def _signed_probs(self, x, s):
        """q_i where z_i, else q_i − 1, from the clamped probabilities q(x):
        ∇log p(z; x) is 1 / qz, and the diagonal of ∇²log p, a diagonal
        matrix, is −1 / qz².  In round-to-nearest fl(q − 1) = −fl(1 − q),
        so these have the bits of 1/q, −1/(1 − q) and their −1/(·)²."""
        q = self._probs_for(x, s)
        return np.where(np.asarray(s.z, dtype=bool), q, q - 1.0)

    def logp_grad(self, x, s):
        return 1.0 / self._signed_probs(x, s)

    def hessian_estimate(self, x, s, u):
        """f(z) (⟨∇log p, u⟩ ∇log p + ∇²log p u).  The trailing + 0.0
        turns a −0.0 entry into +0.0: the bits the run pins were made with,
        by a sum that also added the zero ∇F̃ and ∇²F̃ u terms."""
        qz = self._signed_probs(x, s)
        val = self.value(x, s)
        lg = 1.0 / qz
        lg_u = float(lg @ u)
        return val * lg_u * lg + val * ((-1.0 / (qz * qz)) * u) + 0.0

    def one_sample_grad(self, x, s):
        """f(z) ∇log p(z; x).  The trailing + 0.0 turns a −0.0 entry into
        +0.0: the bits the run pins were made with, by a sum that also added
        the zero ∇F̃."""
        return self.value(x, s) * self.logp_grad(x, s) + 0.0

    def exact_value(self, x):
        return multilinear_exact(self.f, x)

    def exact_grad(self, x):
        return self.exact_value_grad(x)[1]

    def exact_value_grad(self, x):
        """F and ∇F are rows of the one factor stack of
        :func:`multilinear_grad_hess`; the contraction rounds a row as that
        row alone, so F has the bits of :func:`multilinear_exact` at x."""
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


def ordered_dots(A, x):
    """Σ_j A[..., j] x[..., j], added in column order j = 0, 1, ...

    Each product and each sum is its own numpy multiply or add, so every
    entry has the bits of a left fold of separately rounded products on any
    host: no BLAS kernel and no fused multiply-add picks the order.  Column
    j is one slice ``A[..., j]``, contiguous when A is column-major.  One
    row against one point is the same fold on Python floats, which are
    IEEE doubles too, without 2d − 1 numpy calls on 0-d slices.
    """
    if A.ndim == x.ndim == 1:
        a, b = A.tolist(), x.tolist()
        out = a[0] * b[0]
        for j in range(1, len(a)):
            out += a[j] * b[j]
        return out
    out = A[..., 0] * x[..., 0]
    for j in range(1, A.shape[-1]):
        out += A[..., j] * x[..., j]
    return out


def ordered_means(stack):
    """The mean over the leading axis of a C-ordered ``stack``, added in order.

    add.reduce adds along the leading axis in order when each entry holds
    more than one number; a lone column it would sum pairwise, so there
    add.accumulate makes the same in-order sum.  + 0.0 turns a sum of −0.0s
    into +0.0, as a loop starting from zeros does.
    """
    if stack[0].size > 1:
        total = np.add.reduce(stack, axis=0)
    else:
        total = np.add.accumulate(stack, axis=0)[-1]
    return (total + 0.0) / len(stack)


def block_rows(data, idx, M):
    """The rows of ``data`` that M index blocks name, as a (b, M, ...) array
    whose [i, m] is row ``idx[m, i]``.  :data:`FULL_RANGE` splits the rows
    into M consecutive blocks and reads them as a view, without a gather."""
    if idx is FULL_RANGE:
        return data.reshape(M, -1, *data.shape[1:]).swapaxes(0, 1)
    return data[idx.T]


class FiniteSumProblem:
    """Deterministic finite sum f(x) = (1/N) Σ f_i(x) for the simulator.

    The components are given by two vectorized oracles.  ``values(x, idx)``
    takes one point ``(dim,)`` and ``idx``, an array of component numbers
    (repeats allowed) or :data:`FULL_RANGE`, and returns the array of f_i(x),
    one entry per component named.  ``grads(X, idx)`` takes a stack ``(M,
    dim)`` of points and M index blocks, an ``(M, b)`` array whose row m
    names the components of block m or :data:`FULL_RANGE` for the N
    components in M consecutive blocks, and returns the C-ordered ``(b, M,
    dim)`` array whose [i, m] is ∇f_i at X[m] for the i-th component of
    block m.  An oracle reads :data:`FULL_RANGE` without a gather, which is
    how :meth:`value`, :meth:`full_grad` and the anchor rounds make their
    full passes.
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

        Margins are :func:`ordered_dots` on ``p``'s column-major copy of A,
        which rounds exactly as the per-sample margin does.
        """
        y, cols = p.y, p._cols

        def values(x, idx):
            return _softplus(-y[idx] * ordered_dots(cols[idx], x))

        def grads(X, idx):
            a, yi = block_rows(cols, idx, len(X)), block_rows(y, idx, len(X))
            coef = -yi * _sigmoid(-yi * ordered_dots(a, X))
            return np.multiply(coef[..., None], a, order="C")

        return cls(p.dim, p.n, values, grads)

    def batch_grad(self, x, idx):
        """Means of ∇f_i over blocks of ``idx``, each summed in index order.

        ``x`` is a stack ``(M, dim)`` and ``idx`` is M equal consecutive
        blocks: row m of the ``(M, dim)`` result is the mean over block m at
        ``x[m]``, bit for bit what a call on the stack of one ``x[m:m + 1]``
        and block m gives.
        ``range(n)`` names every component in order, as ``np.arange(n)``
        does, and the oracles read it as :data:`FULL_RANGE`, without a
        gather; unlike that slice, the range has a length.
        """
        if isinstance(idx, range) and idx == range(self.n):
            n_idx, idx = self.n, FULL_RANGE   # read in place, without a gather
        else:
            idx = np.asarray(idx)
            n_idx = idx.size
        if np.ndim(x) != 2 or np.shape(x)[1] != self.dim:
            raise ValueError(f"need an (M, {self.dim}) stack of points, "
                             f"not shape {np.shape(x)}")
        M = len(x)
        if n_idx == 0 or n_idx % M:
            raise ValueError(f"{n_idx} indices do not split into {M} "
                             "nonempty equal blocks")
        if idx is not FULL_RANGE:
            idx = idx.reshape(M, -1)
        return ordered_means(self.grads(x, idx))

    def full_grad(self, x):
        return ordered_means(self.grads(x[None], FULL_RANGE))[0]

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
