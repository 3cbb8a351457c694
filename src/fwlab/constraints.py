"""Compact convex feasible sets with linear optimization oracles.

Supported sets: l1 ball, box, scaled simplex, nuclear-norm ball (matrix
variables flattened to vectors), and one block-capped polytope,
:class:`BudgetBoxPolytope` = {0 <= x <= upper, sum over block_j <= cap_j}.
The partition-matroid polytope is its unit case (upper 1, integer caps);
:func:`shrink_translate` maps it to another instance, the shrunk set of the
smoothed continuous-greedy setting.

Tie-breaking in every LMO: the smallest coordinate index wins, so traces
are reproducible.  A zero gradient returns the lexicographically smallest
vertex.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream, check_finite

__all__ = [
    "FeasibleSet",
    "L1Ball",
    "Box",
    "Simplex",
    "PartitionMatroidPolytope",
    "BudgetBoxPolytope",
    "NuclearNormBall",
    "PartitionMatroid",
    "nuclear_lmo",
    "shrink_translate",
    "pipage_round",
    "InfeasibleShrinkError",
    "InfeasiblePointError",
]

MEMBERSHIP_TOL = 1e-9
#: the one tolerance to which every set's ``contains`` answers
CONTAINS_TOL = 10 * MEMBERSHIP_TOL


class InfeasibleShrinkError(ValueError):
    """The shrunk-and-translated constraint set is empty."""


class InfeasiblePointError(ValueError):
    """A point required to lie in a set does not."""


def _check_dim(set_, g):
    g = check_finite(g, "LMO gradient")
    if g.shape != (set_.dim,):
        raise ValueError(f"dimension mismatch: set dim {set_.dim}, vector {g.shape}")
    return g


class FeasibleSet:
    """Base class: a nonempty compact convex subset of R^dim."""

    dim: int

    def lmo_min(self, g: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lmo_max(self, g: np.ndarray) -> np.ndarray:
        return self.lmo_min(-np.asarray(g, dtype=float))

    def contains(self, x: np.ndarray) -> bool:
        """Whether x lies in the set, to :data:`CONTAINS_TOL`."""
        raise NotImplementedError


class L1Ball(FeasibleSet):
    def __init__(self, radius: float, dim: int):
        if radius <= 0:
            raise ValueError("l1 ball radius must be positive")
        self.radius = float(radius)
        self.dim = int(dim)

    def lmo_min(self, g):
        g = _check_dim(self, g)
        v = np.zeros(self.dim)
        i = int(np.abs(g).argmax())  # the first max: smallest index
        if g[i] == 0.0:
            v[0] = -self.radius  # lexicographically smallest vertex
        else:
            v[i] = -self.radius if g[i] > 0.0 else self.radius  # -radius sign(g_i)
        return v

    def contains(self, x):
        # add.reduce is the reduction np.sum calls, without its Python wrapper
        return float(np.add.reduce(np.abs(x), axis=None)) <= self.radius + CONTAINS_TOL


class Box(FeasibleSet):
    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be equal-length vectors")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size
        self._lower_tol, self._upper_tol = lower - CONTAINS_TOL, upper + CONTAINS_TOL

    def lmo_min(self, g):
        g = _check_dim(self, g)
        # ties at g_i = 0 resolve to the lower bound
        return np.where(g < 0, self.upper, self.lower)

    def lmo_max(self, g):
        g = _check_dim(self, g)
        # ties at g_i = 0 resolve to the upper bound: an all-zero ascent moves
        return np.where(g < 0, self.lower, self.upper)

    def contains(self, x):
        return bool(np.all(x >= self._lower_tol) and np.all(x <= self._upper_tol))

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))


class Simplex(FeasibleSet):
    """Scaled probability simplex {x >= 0, sum x = scale} with d vertices."""

    def __init__(self, scale: float, dim: int):
        if scale <= 0:
            raise ValueError("simplex scale must be positive")
        self.scale = float(scale)
        self.dim = int(dim)

    def lmo_min(self, g):
        g = _check_dim(self, g)
        v = np.zeros(self.dim)
        v[int(np.argmin(g))] = self.scale
        return v

    def contains(self, x):
        return bool(np.all(x >= -CONTAINS_TOL)
                    and abs(float(np.sum(x)) - self.scale) <= CONTAINS_TOL)


def _parse_blocks(blocks, dim):
    seen = np.zeros(dim, dtype=bool)
    out = []
    for b in blocks:
        idx = np.asarray(sorted(b), dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError("block index out of range")
        if np.any(seen[idx]):
            raise ValueError("blocks must be disjoint")
        seen[idx] = True
        out.append(idx)
    if not np.all(seen):
        raise ValueError("blocks must cover every coordinate")
    return out


class PartitionMatroid:
    """Discrete partition matroid: disjoint blocks with integer budgets."""

    def __init__(self, blocks, budgets, ground_size: int):
        self.ground_size = int(ground_size)
        self.blocks = _parse_blocks(blocks, self.ground_size)
        self.budgets = [int(b) for b in budgets]
        if len(self.budgets) != len(self.blocks):
            raise ValueError("one budget per block required")
        for blk, b in zip(self.blocks, self.budgets):
            if not 0 <= b <= len(blk):
                raise ValueError("budgets must satisfy 0 <= budget <= block size")

    def is_base(self, members: np.ndarray) -> bool:
        members = np.asarray(members, dtype=bool)
        return all(
            int(members[blk].sum()) == b for blk, b in zip(self.blocks, self.budgets)
        )

    def n_bases(self) -> int:
        from math import comb

        n = 1
        for blk, b in zip(self.blocks, self.budgets):
            n *= comb(len(blk), b)
        return n

    def iter_bases(self):
        """Yield every base as a boolean membership vector."""
        from itertools import combinations, product

        per_block = [
            list(combinations(blk.tolist(), b))
            for blk, b in zip(self.blocks, self.budgets)
        ]
        for combo in product(*per_block):
            mask = np.zeros(self.ground_size, dtype=bool)
            for sel in combo:
                mask[list(sel)] = True
            yield mask


class BudgetBoxPolytope(FeasibleSet):
    """{0 <= x <= upper, sum over block_j <= cap_j}, upper uniform per block.

    Caps need not be integers.  ``lmo_max`` fills each block greedily by
    descending gradient (including non-positive entries), ``min(upper,
    room)`` per coordinate, so outputs sum exactly to the caps, which the
    rounding step relies on; ``lmo_min`` fills by ascending gradient over
    negative entries only.

    The blocks are held as one permutation of the coordinates that lists
    each block in increasing index order, block after block.  A stable sort
    by (block, gradient) keeps that layout, so the k-th position of block j
    receives the same amount ``_fill[k]`` for every gradient: the greedy
    fill, computed once, which a uniform upper makes order-free.
    """

    def __init__(self, upper, blocks, caps):
        upper = np.asarray(upper, dtype=float)
        if np.any(upper < 0):
            raise InfeasibleShrinkError("upper bounds negative after shrink")
        self.upper = upper
        self.dim = upper.size
        self.blocks = _parse_blocks(blocks, self.dim)
        self.caps = np.array(caps, dtype=float)
        if self.caps.size != len(self.blocks):
            raise ValueError("one cap per block required")
        self._fill = np.zeros(self.dim)
        start = 0
        for blk, c in zip(self.blocks, self.caps):
            if c < 0:
                raise InfeasibleShrinkError("negative block cap after shrink")
            if c > float(np.sum(upper[blk])) + MEMBERSHIP_TOL:
                raise ValueError("cap exceeds total box mass of its block")
            if np.any(upper[blk] != upper[blk[:1]]):
                raise ValueError("upper must be the same within each block")
            room = c
            for k in range(start, start + blk.size):
                if room <= 0:
                    break
                self._fill[k] = take = min(upper[blk[0]], room)
                room -= take
            start += blk.size
        sizes = np.array([blk.size for blk in self.blocks], dtype=np.intp)
        self._perm = np.concatenate([np.zeros(0, dtype=np.intp), *self.blocks])
        self._block_id = np.repeat(np.arange(sizes.size), sizes)
        # contains sums block j over the segment [0.0, x of block j]: reduceat
        # adds a segment as first + (sum of the rest), so the leading zero
        # makes it 0 + the sum np.sum forms, and an empty block sums to 0.
        self._seg_starts = np.cumsum(sizes) - sizes + np.arange(sizes.size)
        self._slot = np.empty(self.dim, dtype=np.intp)
        self._slot[self._perm] = np.arange(self.dim) + self._block_id + 1
        self._upper_tol, self._caps_tol = upper + CONTAINS_TOL, self.caps + CONTAINS_TOL

    def lmo_min(self, g):
        g = _check_dim(self, g)
        gp = g[self._perm]
        order = np.lexsort((gp, self._block_id))
        v = np.zeros(self.dim)
        v[self._perm[order]] = np.where(gp[order] < 0, self._fill, 0.0)
        return v

    def lmo_max(self, g):
        g = _check_dim(self, g)
        order = np.lexsort((-g[self._perm], self._block_id))
        v = np.zeros(self.dim)
        v[self._perm[order]] = self._fill
        return v

    def contains(self, x):
        # the least coordinate answers as the per-coordinate test does;
        # count_nonzero answers .any() and .all() in one C call
        if (np.minimum.reduce(x, initial=np.inf) < -CONTAINS_TOL
                or np.count_nonzero(x > self._upper_tol)):
            return False
        seg = np.zeros(self.dim + self.caps.size)
        seg[self._slot] = x
        sums = np.add.reduceat(seg, self._seg_starts)
        return np.count_nonzero(sums <= self._caps_tol) == self.caps.size


class PartitionMatroidPolytope(BudgetBoxPolytope):
    """{0 <= x <= 1, sum over block_j <= budget_j}, the unit case of
    :class:`BudgetBoxPolytope`: ``lmo_max`` returns the indicator of a base."""

    def __init__(self, blocks, budgets, dim: int):
        self.matroid = PartitionMatroid(blocks, budgets, dim)
        super().__init__(np.ones(self.matroid.ground_size), self.matroid.blocks,
                         self.matroid.budgets)

    @property
    def budgets(self):
        return self.matroid.budgets


class NuclearNormBall(FeasibleSet):
    """{X : ||X||_* <= radius} for rows x cols matrices, flattened."""

    def __init__(self, radius: float, rows: int, cols: int):
        if radius <= 0:
            raise ValueError("nuclear-norm radius must be positive")
        self.radius = float(radius)
        self.rows = int(rows)
        self.cols = int(cols)
        self.dim = self.rows * self.cols

    def lmo_min(self, g):
        g = _check_dim(self, g)
        return nuclear_lmo(g.reshape(self.rows, self.cols), self.radius).ravel()

    def contains(self, x):
        X = np.asarray(x, dtype=float).reshape(self.rows, self.cols)
        return (float(np.sum(np.linalg.svd(X, compute_uv=False)))
                <= self.radius + CONTAINS_TOL)


def nuclear_lmo(G: np.ndarray, radius: float) -> np.ndarray:
    """Rank-1 minimizer ``-radius * u1 v1^T`` of <M, G> over the
    nuclear-norm ball, from the top singular pair of ``np.linalg.svd``
    (the outer product does not depend on the sign LAPACK picks); the zero
    matrix for G = 0."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    G = check_finite(np.asarray(G, dtype=float), "nuclear LMO input")
    if not G.any():
        return np.zeros_like(G)
    U, _, Vt = np.linalg.svd(G, full_matrices=False)
    return -radius * np.outer(U[:, 0], Vt[0])


def shrunk_cap(budget: float, upper: np.ndarray, delta: float) -> tuple[float, bool]:
    """A partition-matroid block's cap in the shrunk set, given the block's
    shrunk upper bounds, and whether the box capped it.

    The budget loses delta per coordinate; a budget that still exceeds the
    block's box mass does not bind inside [delta, 1 - delta], so the cap is
    that mass instead (a full budget always is).
    """
    want, mass = budget - delta * upper.size, float(np.sum(upper))
    return min(want, mass), want > mass


def shrink_translate(set_: FeasibleSet, delta: float) -> FeasibleSet:
    """Shrink the unit box by delta on every face and translate by -delta.

    For a constraint set K inside [0, 1]^d, the result is
    (X'_delta  intersect  K) - delta*1, realized exactly for the supported
    kinds: boxes and partition-matroid polytopes (the latter as a
    :class:`BudgetBoxPolytope`).
    """
    if delta < 0 or delta >= 0.5:
        raise InfeasibleShrinkError(f"delta={delta} too large for the unit box")
    if delta == 0:
        return set_

    if isinstance(set_, Box):
        lo = np.maximum(set_.lower - delta, 0.0)
        hi = np.minimum(set_.upper, 1.0 - delta) - delta
        if np.any(hi < lo - MEMBERSHIP_TOL):
            raise InfeasibleShrinkError("empty box after shrink: an upper bound "
                                        "below delta, or a lower bound above 1 - delta")
        return Box(lo, np.maximum(hi, lo))
    if isinstance(set_, PartitionMatroidPolytope):
        upper = np.full(set_.dim, 1.0 - delta - delta)
        caps = [shrunk_cap(b, upper[blk], delta)[0]
                for blk, b in zip(set_.blocks, set_.budgets)]
        if any(c < 0 for c in caps):
            raise InfeasibleShrinkError("block budget exhausted by shrink: a budget "
                                        "below delta·|block|")
        return BudgetBoxPolytope(upper, [b.tolist() for b in set_.blocks], caps)
    raise ValueError(f"shrink_translate does not support {type(set_).__name__}")


def pipage_round(x: np.ndarray, m: PartitionMatroid, f, rng: RngStream) -> np.ndarray:
    """Round a base-polytope point to a matroid base without losing value.

    ``f`` is a SetFunction (see oracles module); the rounding moves mass
    between two fractional coordinates of the same block in whichever
    direction does not decrease the multilinear extension, until the point
    is integral.  Returns a boolean membership vector.
    """
    from .problems import multilinear_value

    x = check_finite(np.asarray(x, dtype=float), "pipage input").copy()
    d = m.ground_size
    if x.shape != (d,):
        raise ValueError("dimension mismatch in pipage_round")
    if np.any(x < -MEMBERSHIP_TOL) or np.any(x > 1 + MEMBERSHIP_TOL):
        raise InfeasiblePointError("point outside [0,1]^d")
    for blk, b in zip(m.blocks, m.budgets):
        if abs(float(np.sum(x[blk])) - b) > 1e-9 * max(1, b):
            raise InfeasiblePointError("block sums must equal budgets")
    x = np.clip(x, 0.0, 1.0)

    def F(y):
        return multilinear_value(f, y, rng=rng, n_samples=200)

    frac_tol = 1e-9
    for blk in m.blocks:
        while True:
            frac = [i for i in blk if frac_tol < x[i] < 1 - frac_tol]
            if len(frac) < 2:
                break
            i, j = frac[0], frac[1]
            # candidate endpoints along e_i - e_j
            up = min(1 - x[i], x[j])      # increase x_i
            dn = min(x[i], 1 - x[j])      # decrease x_i
            xu = x.copy()
            xu[i] += up
            xu[j] -= up
            xd = x.copy()
            xd[i] -= dn
            xd[j] += dn
            fu, fd = F(xu), F(xd)
            if fu > fd:
                x = xu
            elif fd > fu:
                x = xd
            else:
                # plateau: prefer the move that makes coordinate i integral
                x = xu if (xu[i] in (0.0, 1.0) or up >= dn) else xd
            x = np.clip(x, 0.0, 1.0)
        # a single leftover fractional coordinate is a numerical artifact;
        # snap it (block sums are integers, so it must be ~0 or ~1)
        for i in blk:
            if frac_tol < x[i] < 1 - frac_tol:
                x[i] = round(x[i])
    members = x > 0.5
    if not m.is_base(members):
        raise InfeasiblePointError("pipage produced a non-base (numerical failure)")
    return members
