import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.constraints import (
    Box,
    BudgetBoxPolytope,
    CONTAINS_TOL,
    InfeasiblePointError,
    InfeasibleShrinkError,
    L1Ball,
    NuclearNormBall,
    PartitionMatroid,
    PartitionMatroidPolytope,
    Simplex,
    nuclear_lmo,
    pipage_round,
    shrink_translate,
    shrunk_cap,
)
from fwlab.problems import FacilityLocation, Modular, multilinear_exact
from fwlab.rng import RngStream

finite_vec = st.integers(2, 5).flatmap(
    lambda d: st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=d, max_size=d
    )
)


# --- hand examples ---------------------------------------------------------

def test_l1ball_lmo_examples():
    s = L1Ball(1.0, 3)
    assert np.array_equal(s.lmo_min(np.array([3.0, -1.0, 2.0])), [-1, 0, 0])
    s2 = L1Ball(2.0, 2)
    assert np.array_equal(s2.lmo_max(np.array([0.0, -3.0])), [0, -2])


def test_box_lmo_tie_to_lower():
    s = Box(np.zeros(3), np.ones(3))
    assert np.array_equal(s.lmo_min(np.array([0.5, -2.0, 0.0])), [0, 1, 0])


def test_box_lmo_max_tie_to_upper():
    # an argmax that breaks zero-gradient ties at the upper bound, so a DR
    # ascent whose first estimates are all zero still leaves the origin
    s = Box(np.array([0.0, -1.0, 0.25]), np.array([0.6, 2.0, 0.5]))
    assert np.array_equal(s.lmo_max(np.zeros(3)), s.upper)
    assert np.array_equal(s.lmo_max(np.array([0.5, -2.0, -0.0])), [0.6, -1.0, 0.5])


def test_simplex_lmo():
    s = Simplex(1.0, 3)
    assert np.array_equal(s.lmo_min(np.array([4.0, 1.0, 7.0])), [0, 1, 0])
    # lmo_max is the inherited lmo_min(-g): the vertex of the first largest
    # entry, also where entries tie or are zeros of either sign
    for g, want in [([4.0, 1.0, 7.0], 2), ([7.0, 1.0, 7.0], 0), ([1.0, 7.0, 7.0], 1),
                    ([0.0, -0.0, 0.0], 0), ([-0.0, 0.0, -1.0], 0),
                    ([-3.0, -0.0, 0.0], 1)]:
        g = np.array(g)
        assert int(np.argmax(g)) == want
        v = np.zeros(3)
        v[want] = 1.0
        assert s.lmo_max(g).tobytes() == v.tobytes()


def test_matroid_lmo_max_greedy():
    s = PartitionMatroidPolytope([[0, 1], [2, 3]], [1, 1], 4)
    assert np.array_equal(s.lmo_max(np.array([5.0, 1.0, 4.0, 2.0])), [1, 0, 1, 0])
    s2 = PartitionMatroidPolytope([[0, 1, 2]], [2], 3)
    assert np.array_equal(s2.lmo_max(np.array([1.0, 1.0, 0.0])), [1, 1, 0])


def test_diameters():
    # only grad_diff reads a diameter, and it runs on a box
    assert Box(np.zeros(3), np.ones(3)).diameter() == pytest.approx(np.sqrt(3))


def test_zero_gradient_fixed_vertex():
    for s in (L1Ball(1.0, 3), Box(np.zeros(3), np.ones(3)), Simplex(2.0, 3)):
        v1 = s.lmo_min(np.zeros(3))
        v2 = s.lmo_min(np.zeros(3))
        assert np.array_equal(v1, v2)
        assert s.contains(v1)


# --- LMO optimality vs vertex enumeration ----------------------------------

def _vertices(s):
    if isinstance(s, L1Ball):
        for i in range(s.dim):
            for sign in (1, -1):
                v = np.zeros(s.dim)
                v[i] = sign * s.radius
                yield v
    elif isinstance(s, Box):
        for corner in itertools.product(*zip(s.lower, s.upper)):
            yield np.array(corner)
    elif isinstance(s, Simplex):
        for i in range(s.dim):
            v = np.zeros(s.dim)
            v[i] = s.scale
            yield v


@given(g=finite_vec, kind=st.sampled_from(["l1", "box", "simplex"]))
@settings(max_examples=80, deadline=None)
def test_lmo_matches_enumeration(g, kind):
    g = np.array(g)
    d = g.size
    box = Box(np.zeros(d), np.ones(d))
    s = {"l1": L1Ball(1.5, d), "box": box, "simplex": Simplex(2.0, d)}[kind]
    best = min(float(v @ g) for v in _vertices(s))
    v = s.lmo_min(g)
    assert s.contains(v)
    assert float(v @ g) <= best + 1e-9
    w = s.lmo_max(g)
    assert float(w @ g) >= -min(float(u @ -g) for u in _vertices(s)) - 1e-9


def test_matroid_lmo_vs_enumeration():
    rng = RngStream(3)
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [2, 1], 6)
    m = poly.matroid
    for _ in range(50):
        g = rng.normal(size=6)
        # max over bases
        best = max(float(g[mask].sum()) for mask in m.iter_bases())
        assert float(poly.lmo_max(g) @ g) == pytest.approx(best, abs=1e-9)
        # min over independent sets (down-closed)
        best_min = min(
            float(g[np.array(list(sel), dtype=bool)].sum())
            for sel in itertools.product([0, 1], repeat=6)
            if all(sum(sel[i] for i in blk) <= b
                   for blk, b in zip(m.blocks, m.budgets))
        )
        assert float(poly.lmo_min(g) @ g) == pytest.approx(best_min, abs=1e-9)


def _loop_lmo_min(poly, g):
    """Per-block reference: the budget smallest entries, kept if negative."""
    v = np.zeros(poly.dim)
    for blk, budget in zip(poly.blocks, poly.budgets):
        order = blk[np.argsort(g[blk], kind="stable")]
        for i in order[:budget]:
            if g[i] < 0:
                v[i] = 1.0
    return v


def _loop_lmo_max(poly, g):
    v = np.zeros(poly.dim)
    for blk, budget in zip(poly.blocks, poly.budgets):
        v[blk[np.argsort(-g[blk], kind="stable")][:budget]] = 1.0
    return v


def _greedy_lmo(poly, g, descending):
    """Per-block greedy reference (a block-capped set's loop before it was
    array-backed): take min(upper, room) by descending gradient, or by
    ascending gradient over negative entries only."""
    v = np.zeros(poly.dim)
    for blk, cap in zip(poly.blocks, poly.caps):
        room = float(cap)
        order = blk[np.argsort(-g[blk] if descending else g[blk], kind="stable")]
        for i in order:
            if (not descending and g[i] >= 0) or room <= 0:
                break
            take = min(poly.upper[i], room)
            v[i] = take
            room -= take
    return v


def _greedy_contains(poly, x, tol):
    if np.any(x < -tol) or np.any(x > poly.upper + tol):
        return False
    return all(float(np.sum(x[blk])) <= c + tol for blk, c in zip(poly.blocks, poly.caps))


def _budget_box(poly):
    """A block-capped set on the matroid's blocks: uppers 1 - 2 delta
    (delta = 0.05) and 0.8 by turns, fractional caps, 0 where the budget is."""
    upper, caps = np.zeros(poly.dim), []
    for j, (blk, b) in enumerate(zip(poly.blocks, poly.budgets)):
        upper[blk] = (1 - 2 * 0.05, 0.8)[j % 2]
        caps.append(min(0.7 * b + 0.35, float(np.sum(upper[blk]))) if b else 0.0)
    return BudgetBoxPolytope(upper, poly.blocks, caps)


@pytest.mark.parametrize("blocks, budgets", [
    ([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], [2, 2]),
    ([[4, 0, 2], [], [5, 1, 3, 6]], [1, 0, 3]),          # unsorted, empty block
    ([[3], [1, 0], [2, 5, 4]], [0, 2, 0]),               # budget 0
    ([[6, 2, 4, 0, 1, 5, 3]], [7]),
    ([[9, 1, 7, 3, 11, 5], [0, 2, 4, 6, 8, 10, 12, 13, 14, 15]], [4, 6]),
])
def test_matroid_polytope_equals_per_block_loop(blocks, budgets):
    rng = RngStream(5)
    d = sum(len(b) for b in blocks)
    poly = PartitionMatroidPolytope(blocks, budgets, d)
    tol = CONTAINS_TOL
    for s in (poly, _budget_box(poly)):
        for _ in range(200):
            g = rng.integers(-2, 3, size=d).astype(float)    # many ties and zeros
            if rng.random() < 0.5:
                g = g * rng.uniform(0.5, 1.5, size=d) * (rng.random(d) < 0.7)
            if rng.random() < 0.3:
                g = np.where(g == 0, -0.0, g)
            assert s.lmo_min(g).tobytes() == _greedy_lmo(s, g, False).tobytes()
            assert s.lmo_max(g).tobytes() == _greedy_lmo(s, g, True).tobytes()
            if s is poly:
                assert np.array_equal(s.lmo_min(g), _loop_lmo_min(s, g))
                assert np.array_equal(s.lmo_max(g), _loop_lmo_max(s, g))
        for _ in range(200):
            x = rng.uniform(0.0, 1.0, size=d) * s.upper
            # scale one block's sum to its cap plus an offset near tol
            j = int(rng.integers(len(blocks)))
            blk = s.blocks[j]
            if blk.size and x[blk].sum() > 0:
                # off = tol puts the block sum within a few ulps of cap + tol
                off = tol * float(rng.uniform(-2.0, 2.0)) if rng.random() < 0.5 else tol
                x[blk] *= (s.caps[j] + off) / x[blk].sum()
                x = np.minimum(x, s.upper + 2 * tol)
            if rng.random() < 0.1:
                x[int(rng.integers(d))] = -tol * float(rng.uniform(0.0, 2.0))
            assert s.contains(x) == _greedy_contains(s, x, tol)


def test_budget_box_refuses_nonuniform_upper_in_a_block():
    with pytest.raises(ValueError, match="same within each block"):
        BudgetBoxPolytope([0.9, 0.9, 0.8], [[0], [1, 2]], [0.5, 0.5])


def test_shrink_caps_full_budget_at_box_mass():
    # a full budget (block 0 1) does not bind inside [delta, 1 - delta]
    s = PartitionMatroidPolytope([[0, 1], [2, 3]], [2, 1], 4)
    kp = shrink_translate(s, 0.1)
    assert kp.caps[0] == float(np.sum(kp.upper[:2]))
    assert kp.caps[1] == 1 - 0.1 * 2
    assert kp.lmo_max(np.ones(4)).tobytes() == _greedy_lmo(kp, np.ones(4), True).tobytes()


def _member(s, x, tol):
    """Membership of x to ``tol``, from the definition of the set ``s``."""
    if isinstance(s, L1Ball):
        return float(np.sum(np.abs(x))) <= s.radius + tol
    if isinstance(s, Box):
        return _box_contains(s, x, tol)
    if isinstance(s, Simplex):
        return bool(np.all(x >= -tol)) and abs(float(np.sum(x)) - s.scale) <= tol
    return _greedy_contains(s, x, tol)


def test_feasibility_closure_under_fw_steps():
    rng = RngStream(4)
    for s in (L1Ball(1.0, 4), Box(np.zeros(4), np.ones(4)), Simplex(1.0, 4),
              PartitionMatroidPolytope([[0, 1], [2, 3]], [1, 1], 4)):
        x = s.lmo_min(np.zeros(4))
        for t in range(1, 60):
            v = s.lmo_min(rng.normal(size=4))
            x = x + (1.0 / t) * (v - x)
            assert _member(s, x, 1e-9)


def test_continuous_greedy_average_feasible():
    rng = RngStream(5)
    s = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [1, 2], 6)
    T = 40
    x = np.zeros(6)
    for _ in range(T):
        x = x + s.lmo_max(rng.normal(size=6)) / T
    assert _greedy_contains(s, x, 1e-9)


# --- nuclear norm ball -----------------------------------------------------

def test_nuclear_lmo_diagonal():
    M = nuclear_lmo(np.diag([3.0, 1.0]), 1.0)
    assert np.array_equal(M, [[-1.0, 0.0], [0.0, 0.0]])


def test_nuclear_lmo_zero_degenerate():
    M = nuclear_lmo(np.zeros((3, 2)), 2.0)
    assert np.array_equal(M, np.zeros((3, 2)))


def _orthonormal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def test_nuclear_lmo_vs_svd_oracle():
    # <M, G> = -r sigma_1 and ||M||_* = r: at several shapes, on a
    # rank-deficient G, and on G whose top singular values tie.
    rng = RngStream(6)
    cases = [rng.normal(size=shape) for shape in [(2, 3), (5, 8), (20, 30)]
             for _ in range(5)]
    cases.append(np.outer(rng.normal(size=5), rng.normal(size=8)))  # rank 1
    cases.append(rng.normal(size=(20, 2)) @ rng.normal(size=(2, 30)))  # rank 2
    for rows, cols in [(2, 3), (5, 8), (20, 30)]:
        sigma = np.zeros(min(rows, cols))
        sigma[:2] = 3.0
        sigma[2:] = 1.0
        cases.append(_orthonormal(rng, rows)[:, :len(sigma)] * sigma
                     @ _orthonormal(rng, cols)[:len(sigma)])
    for G in cases:
        sigma1 = np.linalg.svd(G, compute_uv=False)[0]
        M = nuclear_lmo(G, 2.0)
        assert M.shape == G.shape
        assert np.sum(np.linalg.svd(M, compute_uv=False)) == pytest.approx(2.0, rel=1e-12)
        assert float(np.sum(M * G)) == pytest.approx(-2.0 * sigma1, rel=1e-12)


def test_nuclear_ball_lmo_depends_on_the_gradient_alone():
    # A ball's earlier calls do not move a later answer: one ball is shared
    # by every seed of a run.
    rng = RngStream(8)
    g1, g2 = rng.normal(size=6), rng.normal(size=6)
    used = NuclearNormBall(1.0, 2, 3)
    used.lmo_min(g1)
    assert used.lmo_min(g2).tobytes() == NuclearNormBall(1.0, 2, 3).lmo_min(g2).tobytes()


def test_nuclear_ball_membership():
    s = NuclearNormBall(1.0, 3, 3)
    assert s.contains(np.zeros(9))
    assert s.contains(0.5 * np.eye(3).ravel() / 1.5)
    assert not s.contains(2.0 * np.eye(3).ravel())


# --- shrink / translate ----------------------------------------------------

def test_shrink_box():
    out = shrink_translate(Box(np.zeros(2), np.ones(2)), 0.1)
    assert isinstance(out, Box)
    assert np.allclose(out.lower, 0.0)
    assert np.allclose(out.upper, 0.8)


def test_shrink_identity_at_zero():
    s = PartitionMatroidPolytope([[0, 1]], [1], 2)
    assert shrink_translate(s, 0.0) is s


def test_shrink_too_large():
    with pytest.raises(InfeasibleShrinkError):
        shrink_translate(Box(np.zeros(2), np.ones(2)), 0.6)


def test_shrink_matroid_grid_oracle():
    # K = {x1 + x2 <= 1, x >= 0} in [0,1]^2, delta = 0.2
    s = PartitionMatroidPolytope([[0, 1]], [1], 2)
    delta = 0.2
    kp = shrink_translate(s, delta)
    tol = CONTAINS_TOL
    for a in np.linspace(-0.1, 1.0, 50):
        for b in np.linspace(-0.1, 1.0, 50):
            x = np.array([a, b])
            # direct definition: x + delta in X'_delta(=[delta, 1-delta]^2) and in K
            y = x + delta
            direct = (np.all(y >= delta - tol) and np.all(y <= 1 - delta + tol)
                      and y.sum() <= 1 + tol)
            assert kp.contains(x) == direct


def test_budget_box_lmo_fills_caps():
    kp = BudgetBoxPolytope(np.full(4, 0.8), [[0, 1], [2, 3]], [0.9, 0.5])
    v = kp.lmo_max(np.array([-1.0, 2.0, 0.0, 0.0]))
    assert v[:2].sum() == pytest.approx(0.9)
    assert v[2:].sum() == pytest.approx(0.5)
    assert kp.contains(v)


# --- pipage rounding -------------------------------------------------------

def _base_point(poly, rng, k=8):
    x = np.zeros(poly.dim)
    for _ in range(k):
        g = rng.normal(size=poly.dim)
        x += poly.lmo_max(g) / k
    return x


def test_pipage_integral_identity():
    m = PartitionMatroid([[0, 1], [2, 3]], [1, 1], 4)
    f = Modular(np.array([1.0, 2.0, 3.0, 4.0]))
    x = np.array([1.0, 0.0, 0.0, 1.0])
    S = pipage_round(x, m, f, RngStream(1))
    assert np.array_equal(S, x.astype(bool))


def test_pipage_modular_exact():
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [1, 2], 6)
    m = poly.matroid
    w = np.array([1.0, 2.0, 3.0, 1.0, 5.0, 2.0])
    f = Modular(w)
    rng = RngStream(2)
    for _ in range(10):
        x = _base_point(poly, rng)
        F = multilinear_exact(f, x)
        S = pipage_round(x, m, f, rng)
        assert m.is_base(S)
        assert f(S) >= F - 1e-9


def test_pipage_facility_lossless():
    rng = RngStream(3)
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [1, 1], 6)
    m = poly.matroid
    f = FacilityLocation(rng.uniform(0, 1, size=(4, 6)))
    for _ in range(10):
        x = _base_point(poly, rng)
        F = multilinear_exact(f, x)
        S = pipage_round(x, m, f, rng)
        assert m.is_base(S)
        assert f(S) >= F - 1e-9


def test_pipage_rejects_off_polytope():
    m = PartitionMatroid([[0, 1]], [1], 2)
    f = Modular(np.ones(2))
    with pytest.raises(InfeasiblePointError):
        pipage_round(np.array([0.9, 0.9]), m, f, RngStream(0))


def test_matroid_validation():
    with pytest.raises(ValueError):
        PartitionMatroid([[0, 1], [1, 2]], [1, 1], 3)  # overlap
    with pytest.raises(ValueError):
        PartitionMatroid([[0, 1]], [1], 3)  # not covering
    with pytest.raises(ValueError):
        PartitionMatroid([[0, 1]], [3], 2)  # budget too large


def _box_contains(box, x, tol):
    return bool(np.all(x >= box.lower - tol) and np.all(x <= box.upper + tol))


def test_budget_box_contains_same_answer_across_tolerances():
    # contains reads bounds shifted by CONTAINS_TOL once, at construction;
    # call after call it answers as the bounds computed afresh do.
    rng = RngStream(6)
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5, 6]], [1, 2], 7)
    box = Box(np.linspace(-0.5, 0.1, 7), np.linspace(0.3, 1.0, 7))
    cases = [(s, _greedy_contains)
             for s in (poly, _budget_box(poly), shrink_translate(poly, 0.05))]
    for s, reference in cases + [(box, _box_contains)]:
        answers = set()
        for _ in range(600):
            # a vertex moved off the boundary by about the tolerance
            x = s.lmo_max(rng.normal(size=7)) * (1.0 + float(rng.uniform(-2e-8, 2e-8)))
            x[int(rng.integers(7))] += float(rng.uniform(-2e-8, 2e-8))
            answers.add(s.contains(x))
            assert s.contains(x) == reference(s, x, CONTAINS_TOL)
        assert answers == {False, True}
        x = s.lmo_max(np.ones(7))
        assert s.contains(x) == reference(s, x, CONTAINS_TOL)


def test_shrunk_cap_clamps_above_box_mass():
    upper = np.full(25, (1.0 - 0.05) - 0.05)
    assert shrunk_cap(23, upper, 0.05) == (23 - 0.05 * 25, False)
    assert shrunk_cap(24, upper, 0.05) == (float(np.sum(upper)), True)
    assert shrunk_cap(25, upper, 0.05)[1]
