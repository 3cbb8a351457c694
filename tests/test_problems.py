import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fwlab import problems
from fwlab.problems import (
    _all_masks,
    _all_values,
    _sigmoid,
    _softplus,
    Coverage,
    EnumerationBudgetError,
    FacilityLocation,
    FULL_RANGE,
    LogisticL1,
    Modular,
    MultilinearProblem,
    NQP,
    Quadratic,
    RobustLRMR,
    Sample,
    block_rows,
    make_coverage,
    make_concave_over_modular,
    make_facility_location,
    make_logdet,
    multilinear_exact,
    multilinear_grad_hess,
    multilinear_value,
    ordered_dots,
    ordered_means,
)
from fwlab.rng import RngStream
from reference import TableSetFunction, logistic_value, make_random_bounded


def _fd_grad(fun, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2 * h)
    return g


# --- oblivious instances ---------------------------------------------------

def test_quadratic_gradient_unbiased():
    p = Quadratic(np.array([1.0, -1.0]), noise_sigma=0.5)
    rng = RngStream(0)
    x = np.array([0.3, 0.3])
    g = np.mean([p.one_sample_grad(x, p.sample(x, rng)) for _ in range(20000)], axis=0)
    assert np.allclose(g, x - p.target, atol=0.02)
    s0 = Sample(z=np.zeros(2))
    assert np.allclose(p.one_sample_grad(p.target, s0), 0.0)


def test_nqp_structure():
    p = NQP(6, RngStream(1))
    assert np.all(p.H <= 0)
    assert np.allclose(p.b, -p.H.T @ np.ones(6))
    x = RngStream(2).uniform(size=6)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-5)
    # gradient nonnegative on the unit box: monotone structure
    assert np.all(p.exact_grad(np.zeros(6)) >= 0)


def test_logistic_grad_matches_fd():
    rng = RngStream(3)
    A = rng.normal(size=(8, 2))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    p = LogisticL1(A, y)
    x = np.array([0.4, -0.2])
    s = Sample(z=3)
    assert np.allclose(_fd_grad(lambda w: logistic_value(p, w, s), x),
                       p.one_sample_grad(x, s), atol=1e-6)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-6)


def _sigmoid_mask_form(t):
    """The two-mask logistic function that ``_sigmoid`` replaced."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_equals_mask_form():
    sub, tiny = np.finfo(float).smallest_subnormal, np.finfo(float).tiny
    edges = np.array([0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308,
                      np.inf, -np.inf, sub, -sub, 7 * sub, -7 * sub, tiny, -tiny,
                      1e-300, -1e-300, 36.7, -36.7])
    t = np.concatenate([edges, RngStream(3).normal(scale=40.0, size=20_000)])
    assert _sigmoid(t).tobytes() == _sigmoid_mask_form(t).tobytes()
    assert _sigmoid(edges[:2]).tobytes() == np.array([0.5, 0.5]).tobytes()


def test_softplus_within_3_ulp_of_logaddexp():
    edges = np.array([0.0, -0.0, 709.0, -709.0, 800.0, -800.0, 1e308, -1e308])
    draws = [RngStream(4, k).normal(scale=scale, size=20_000)
             for k, scale in enumerate([0.01, 0.1, 1.0, 10.0, 100.0])]
    t = np.concatenate([edges, *draws])
    got, ref = _softplus(t), np.logaddexp(0.0, t)
    assert np.isfinite(got).all()
    assert (np.abs(got - ref) <= 3 * np.spacing(ref)).all()
    assert got[:2].tobytes() == np.full(2, np.log(2.0)).tobytes()


def test_logistic_sample_law_uniform_and_x_free():
    rng = RngStream(4)
    A = rng.normal(size=(5, 2))
    y = np.ones(5)
    p = LogisticL1(A, y)
    counts = np.zeros(5)
    n = 20000
    for _ in range(n):
        counts[p.sample(np.zeros(2), rng).z] += 1
    assert np.all(np.abs(counts / n - 0.2) < 3 * np.sqrt(0.2 * 0.8 / n))


def test_logistic_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,0.5,-0.2\n-1,0.1,0.9\n")
    p = LogisticL1.from_csv(str(path))
    assert p.n == 2 and p.dim == 2
    with pytest.raises(ValueError):
        LogisticL1.from_csv(str(tmp_path / "missing.csv"))


def _wide_normals(rng, shape):
    # normals over 16 decades, so that a sum taken in another order rounds apart
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


def _fold(terms):
    """Python's left fold of a sequence of floats, from its first term."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _folded_dot(row, point):
    """The left fold of the separately rounded products row[j] * point[j]."""
    return _fold([float(a) * float(b) for a, b in zip(row, point)])


@pytest.mark.parametrize("d", range(1, 14))
def test_ordered_dots_is_a_left_fold_of_rounded_products(d):
    # numpy picks a reduction's order by the shape and the layout; each form
    # of the helper (the Python fold, the one reduce, the column loop) adds
    # in column order at every d, for one row, a stack of rows and a stack of
    # points, with signed zeros kept as the fold keeps them
    rng = RngStream(90 + d)
    A = _wide_normals(rng, (9, d))
    A[1] = 0.0                                   # a zero row
    A[2, ::2] = -0.0
    A[3] = -0.0
    x = _wide_normals(rng, d)
    x[::3] = -0.0
    A[4] = np.copysign(0.0, -x)                  # every product −0.0
    cols = np.asfortranarray(A)
    rows = [_folded_dot(row, x) for row in A]
    assert [float(v).hex() for v in ordered_dots(cols, x)] == [r.hex() for r in rows]
    assert [float(ordered_dots(cols[r], x)).hex() for r in range(len(A))] == \
        [r.hex() for r in rows]
    # a (b, M, d) block stack against an (M, d) stack of points
    X = np.stack([x, _wide_normals(rng, d)])
    S = np.stack([A, A[::-1]], axis=1)
    got = ordered_dots(S, X)
    for i, m in itertools.product(range(len(A)), range(2)):
        ref = _folded_dot(S[i, m], X[m])
        assert float(got[i, m]).hex() == ref.hex()
    # column-major (n, d) arrays: one sum, two, the n = 40 finite sums and
    # the N = 4,000 objective pass, from two sums on with a row of −0.0
    # products
    for n in (1, 2, 40, 4000):
        B = _wide_normals(rng, (n, d))
        B[1:2] = np.copysign(0.0, -x)
        ref = [_folded_dot(r, x).hex() for r in B]
        assert [float(v).hex() for v in ordered_dots(np.asfortranarray(B), x)] == ref
        if n == 40:   # each row as a (1, d) array: a lone sum
            assert [float(ordered_dots(np.asfortranarray(B[r:r + 1]), x)[0]).hex()
                    for r in range(n)] == ref
    # (b, M, d) blocks of a column-major copy against (M, d) points: index
    # blocks with the columns innermost (block_rows' fancy index) and
    # outermost (a column-major copy), and the full-range views of the
    # anchors and full_grad
    B = _wide_normals(rng, (40, d))
    B[7] = np.copysign(0.0, -x)                  # −0.0 products against x
    cols = np.asfortranarray(B)
    for b, M in [(1, 1), (2, 1), (1, 3), (5, 3), (8, 8)]:
        idx = rng.integers(40, size=(M, b))
        X = _wide_normals(rng, (M, d))
        if b * M > 1:
            idx[-1, -1], X[-1] = 7, x
        a = block_rows(cols, idx, M)
        for S in (a, np.asfortranarray(a)):
            got = ordered_dots(S, X)
            for i, m in itertools.product(range(b), range(M)):
                ref = _folded_dot(B[idx[m, i]], X[m])
                assert float(got[i, m]).hex() == ref.hex()
    for M in (1, 4):
        X = np.tile(x, (M, 1))
        got = ordered_dots(block_rows(cols, FULL_RANGE, M), X)
        ref = [_folded_dot(r, x).hex() for r in B]
        assert [float(v).hex() for v in got.T.ravel()] == ref


@pytest.mark.parametrize("shape", [(5, 1), (5, 2), (4000, 1), (4000, 6),
                                   (1000, 1, 1), (1000, 4, 1), (1000, 1, 13),
                                   (1000, 4, 13), (1, 3)])
def test_ordered_means_adds_the_leading_axis_in_order(shape):
    rng = RngStream(7)
    stack = _wide_normals(rng, shape)
    stack[:, ..., 0] = -0.0         # a column of −0.0 gives +0.0, as from zeros
    got = ordered_means(stack).ravel()
    flat = stack.reshape(len(stack), -1)
    for k in range(flat.shape[1]):
        ref = (_fold([0.0] + [float(v) for v in flat[:, k]])) / len(stack)
        assert float(got[k]).hex() == ref.hex()


@pytest.mark.parametrize("n, d", [(40, 1), (40, 6), (4000, 13)])
def test_logistic_exact_grad_is_the_in_order_loop_over_rows(n, d):
    rng = RngStream(8)
    A = rng.normal(size=(n, d))
    A[:, 0] = 0.0
    y = np.where(rng.normal(size=n) < 0, -1.0, 1.0)
    p = LogisticL1(A, y)
    x = rng.normal(size=d)
    v = y * _sigmoid(np.array([p._margin(x, i) for i in range(n)]))
    g = np.zeros(d)
    for i in range(n):
        g = g + A[i] * v[i]
    assert p.exact_grad(x).tobytes() == (-(g / n)).tobytes()
    assert p.exact_value(x) == float(np.mean(
        [logistic_value(p, x, Sample(z=i)) for i in range(n)]))


def test_lrmr_loss_shape():
    obs = np.array([[0, 0, 1.0], [1, 1, -2.0]])
    p = RobustLRMR(2, 2, obs, sigma=1.0)
    assert p._psi(np.array([0.0]))[0] == 0.0
    assert p._psi_d1(np.array([0.0]))[0] == 0.0
    assert p._psi(np.array([100.0]))[0] == pytest.approx(1.0)
    x = RngStream(5).normal(size=4)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-6)
    s = Sample(z=1)
    assert np.allclose(_fd_grad(lambda w: p.value(w, s), x), p.one_sample_grad(x, s),
                       atol=1e-6)


# --- multilinear family ----------------------------------------------------

def test_modular_multilinear_is_linear():
    f = Modular(np.ones(3))
    x = np.array([0.3, 0.7, 0.0])
    F, g, H = multilinear_grad_hess(f, x)
    assert F == pytest.approx(1.0)
    assert np.allclose(g, 1.0)
    assert np.allclose(H, 0.0)


def test_coverage_hand_value():
    # one topic, both elements cover it with probability 1
    f = Coverage(np.array([[1.0], [1.0]]))
    assert multilinear_exact(f, np.array([0.5, 0.5])) == pytest.approx(0.75)


def test_multilinear_grad_matches_fd():
    rng = RngStream(6)
    f = make_random_bounded(8, rng)
    x = rng.uniform(0.1, 0.9, size=8)
    _, g, _ = multilinear_grad_hess(f, x, want_hess=False)
    assert np.allclose(_fd_grad(lambda y: multilinear_exact(f, y), x), g, atol=1e-6)


def test_multilinear_hess_matches_fd():
    rng = RngStream(7)
    f = make_facility_location(5, 3, rng)
    x = rng.uniform(0.2, 0.8, size=5)
    _, g, H = multilinear_grad_hess(f, x)
    for i in range(5):
        def gi(y):
            _, gg, _ = multilinear_grad_hess(f, y, want_hess=False)
            return gg[i]
        assert np.allclose(_fd_grad(gi, x), H[i], atol=1e-5)
    assert np.allclose(np.diag(H), 0.0)


def test_lemma12_style_bounds():
    rng = RngStream(8)
    for trial in range(6):
        d = int(rng.integers(3, 9))
        f = make_random_bounded(d, rng.child(trial))
        M = f.bound
        for _ in range(10):
            x = rng.uniform(0, 1, size=d)
            _, g, H = multilinear_grad_hess(f, x)
            assert np.linalg.norm(g) <= 2 * M * np.sqrt(d) + 1e-9
            assert np.linalg.norm(H, 2) <= 4 * M * np.sqrt(d * (d - 1)) + 1e-9


def test_monotone_dr_property():
    rng = RngStream(9)
    for f in (make_facility_location(6, 4, rng.child(0)),
              make_coverage(6, 5, rng.child(1)),
              make_concave_over_modular(6, 3, rng.child(2)),
              make_logdet(6, rng.child(3))):
        for _ in range(25):
            x = rng.uniform(0, 1, size=6)
            y = np.minimum(x + rng.uniform(0, 1, size=6) * (1 - x), 1.0)
            Fx, gx, _ = multilinear_grad_hess(f, x, want_hess=False)
            Fy, gy, _ = multilinear_grad_hess(f, y, want_hess=False)
            assert Fx <= Fy + 1e-9
            assert np.all(gx >= gy - 1e-9)


# The half-table contraction, one row at a time, with each half's factor
# products as a mask product: the reference the stacked kernel must match bit
# for bit, for values (x's factor pairs) and for partial derivatives (pairs
# swapped for (-1, 1)).  Coordinate pinning, one point per partial
# derivative, is the classical definition, which rounds another way.

def _ref_exact(f, x):
    """The row of a (d,) point x, or of (d, 2) factor pairs P: coordinate i
    contributes P[i, 1] where i is in S and P[i, 0] where it is not."""
    P = _factor_pairs(x) if x.ndim == 1 else x
    d = f.ground_size
    m = d // 2
    lo = np.where(_all_masks(m), P[None, :m, 1], P[None, :m, 0]).prod(axis=1)
    hi = np.where(_all_masks(d - m), P[None, m:, 1], P[None, m:, 0]).prod(axis=1)
    R = _all_values(f).reshape(hi.size, lo.size) @ lo
    return float(hi @ R)


def _factor_pairs(x, swapped=()):
    """x's factor pairs (1 - x_i, x_i), the pair of each coordinate in
    ``swapped`` replaced by its derivative (-1, 1)."""
    P = np.stack([1.0 - x, x], axis=-1)
    P[list(swapped)] = (-1.0, 1.0)
    return P


def _ref_grad_hess(f, x):
    def F_pinned(pins):
        y = x.copy()
        for i, b in pins:
            y[i] = b
        return _ref_exact(f, y)

    d = x.size
    F = F_pinned([])
    grad = np.array([F_pinned([(i, 1.0)]) - F_pinned([(i, 0.0)]) for i in range(d)])
    hess = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                F_pinned([(i, 1.0), (j, 1.0)])
                - F_pinned([(i, 1.0), (j, 0.0)])
                - F_pinned([(i, 0.0), (j, 1.0)])
                + F_pinned([(i, 0.0), (j, 0.0)])
            )
    return F, grad, hess


def _exactness_points(d, rng):
    """Interior points, points outside [0,1]^d, the same clipped, and points
    with random coordinates pinned to 0 or 1."""
    inner = rng.uniform(0.0, 1.0, size=(3, d))
    outer = rng.uniform(-0.5, 1.5, size=(3, d))
    pinned = rng.uniform(0.0, 1.0, size=(3, d))
    pin = rng.random((3, d)) < 0.4
    pinned[pin] = (rng.random((3, d)) < 0.5)[pin]
    return np.concatenate([inner, outer, np.clip(outer, 0.0, 1.0), pinned])


def _exactness_functions(d, rng):
    return [make_random_bounded(d, rng.child(0)),
            make_coverage(d, 4, rng.child(1))]


@pytest.mark.parametrize("d", [1, 4, 10, 12])
def test_multilinear_exact_equals_mask_product(d):
    rng = RngStream(40 + d)
    X = _exactness_points(d, rng)
    for f in _exactness_functions(d, rng):
        ref = np.array([_ref_exact(f, x) for x in X])
        for x, r in zip(X, ref):
            v = multilinear_exact(f, x)
            assert isinstance(v, float) and v == r
        stack = X[[0, 1, 1, 5, 0, 11, 11]]           # duplicate rows
        out = multilinear_exact(f, stack)
        assert out.shape == (7,)
        assert np.all(out == ref[[0, 1, 1, 5, 0, 11, 11]])


def test_multilinear_exact_stack_spanning_row_blocks():
    d = 12
    rng = RngStream(52)
    f = make_random_bounded(d, rng)
    X = rng.uniform(-0.2, 1.2, size=(600, d))
    out = multilinear_exact(f, X)
    assert np.all(out == [_ref_exact(f, x) for x in X])
    assert multilinear_exact(f, X[:0]).shape == (0,)


def _scaled_ints(values):
    """Integers n and one exponent e with values[j] == n[j] / 2**e exactly
    (every float is a dyadic rational)."""
    ratios = [Fraction(float(v)) for v in values]
    e = max(r.denominator.bit_length() - 1 for r in ratios)
    return [r.numerator << (e - r.denominator.bit_length() + 1) for r in ratios], e


def _exact_contraction(f, x, swapped=()):
    """The row of ``_factor_pairs(x, swapped)`` and its sum of absolute
    terms, both in exact rational arithmetic (1 - x_i is not rounded)."""
    vals, e_vals = _scaled_ints(_all_values(f))
    xs, e = _scaled_ints(x)                   # 1 - x_i = (2^e - xs_i) / 2^e
    w = [1]                                   # weights times 2^(e d), by doubling
    for i, xi in enumerate(xs):
        without, with_ = (-1 << e, 1 << e) if i in swapped else ((1 << e) - xi, xi)
        w = [wS * without for wS in w] + [wS * with_ for wS in w]
    terms = [v * wS for v, wS in zip(vals, w)]
    unit = Fraction(1, 2 ** (e_vals + e * len(xs)))
    return sum(terms) * unit, sum(map(abs, terms)) * unit


def _contraction_gamma(d):
    # (d + 2^floor(d/2) + 2^ceil(d/2)) u, u = 2^-53
    return Fraction(d + 2 ** (d // 2) + 2 ** (d - d // 2), 2**53)


@pytest.mark.parametrize("d", [1, 4, 7, 10, 11])
def test_multilinear_exact_error_within_contraction_bound(d):
    # |F - F_exact| <= gamma sum_S |f(S) w_S(x)|, against the sum taken in
    # exact rational arithmetic
    rng = RngStream(80 + d)
    X = _exactness_points(d, rng)
    for f in _exactness_functions(d, rng):
        for x in X:
            exact, scale = _exact_contraction(f, x)
            err = abs(Fraction(multilinear_exact(f, x)) - exact)
            assert err <= _contraction_gamma(d) * scale


@pytest.mark.parametrize("d", [1, 4, 7, 10, 11])
def test_multilinear_grad_error_within_contraction_bound(d):
    # |dF/dx_i - exact| <= gamma sum_S |f(S) d_i w_S(x)|: a gradient row is
    # the same contraction on the pairs with (-1, 1) at coordinate i
    rng = RngStream(100 + d)
    X = _exactness_points(d, rng)
    for f in _exactness_functions(d, rng):
        for x in X:
            _, g, _ = multilinear_grad_hess(f, x, want_hess=False)
            for i in range(d):
                exact, scale = _exact_contraction(f, x, [i])
                assert abs(Fraction(g[i]) - exact) <= _contraction_gamma(d) * scale


@pytest.mark.parametrize("d", [6, 7, 12, 13])
def test_multilinear_row_rounds_as_the_point_alone(d):
    # a row's value does not depend on the stack it is evaluated in
    rng = RngStream(90 + d)
    f = make_random_bounded(d, rng)
    X = rng.uniform(-0.2, 1.2, size=(300, d))
    alone = np.array([multilinear_exact(f, x) for x in X])
    for k in (2, 24, 300):
        out = multilinear_exact(f, X[:k])
        assert out.tobytes() == alone[:k].tobytes()


@pytest.mark.parametrize("d", [1, 4, 10, 12])
def test_multilinear_grad_hess_equals_factor_rows(d):
    rng = RngStream(60 + d)
    X = _exactness_points(d, rng)[::2] if d == 12 else _exactness_points(d, rng)
    for f in _exactness_functions(d, rng):
        for x in X:
            F, g, H = multilinear_grad_hess(f, x)
            rg = [_ref_exact(f, _factor_pairs(x, [i])) for i in range(d)]
            rH = np.zeros((d, d))
            for i, j in itertools.combinations(range(d), 2):
                rH[i, j] = rH[j, i] = _ref_exact(f, _factor_pairs(x, [i, j]))
            assert isinstance(F, float) and F.hex() == _ref_exact(f, x).hex()
            assert _bits(g) == _bits(rg) and _bits(H) == _bits(rH)
            F2, g2, none = multilinear_grad_hess(f, x, want_hess=False)
            assert F2.hex() == F.hex() and _bits(g2) == _bits(g) and none is None


@pytest.mark.parametrize("d", [1, 4, 10, 12])
def test_multilinear_grad_hess_equals_pinning(d):
    # Pinning rounds each pinned value within the contraction bound; the
    # rows and the differences of pinned values then agree within twice that
    # bound (and a few roundings of the differences), scaled by
    # sum_S |f(S) dw_S(x)|, the contraction of |f| with the |factor pairs|.
    rng = RngStream(60 + d)
    X = _exactness_points(d, rng)[::2] if d == 12 else _exactness_points(d, rng)
    tol = 2 * float(_contraction_gamma(d)) + 8 * 2.0**-53
    for f in _exactness_functions(d, rng):
        abs_f = TableSetFunction(np.abs(_all_values(f)))
        for x in X:
            F, g, H = multilinear_grad_hess(f, x)
            rF, rg, rH = _ref_grad_hess(f, x)
            assert F == rF
            for i in range(d):
                scale = _ref_exact(abs_f, np.abs(_factor_pairs(x, [i])))
                assert abs(g[i] - rg[i]) <= tol * scale
                for j in range(i + 1, d):
                    scale = _ref_exact(abs_f, np.abs(_factor_pairs(x, [i, j])))
                    assert abs(H[i, j] - rH[i, j]) <= tol * scale


@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_multilinear_grad_hess_is_one_kernel_call(d, monkeypatch):
    shapes = []
    kernel = problems._multilinear_rows

    def counted(vals, P):
        shapes.append(P.shape)
        return kernel(vals, P)

    monkeypatch.setattr(problems, "_multilinear_rows", counted)
    rng = RngStream(74)
    f = make_random_bounded(d, rng)
    x = rng.uniform(size=d)
    multilinear_grad_hess(f, x, want_hess=False)
    multilinear_grad_hess(f, x)
    assert shapes == [(1 + d, d, 2), (1 + d + d * (d - 1) // 2, d, 2)]


def test_multilinear_exact_rejects_bad_shapes():
    f = make_random_bounded(4, RngStream(70))
    with pytest.raises(ValueError):
        multilinear_exact(f, np.full((3, 5), 0.5))
    with pytest.raises(ValueError):
        multilinear_exact(f, np.full(5, 0.5))
    with pytest.raises(ValueError):
        multilinear_exact(f, np.full((2, 3, 4), 0.5))
    with pytest.raises(ValueError):
        multilinear_grad_hess(f, np.full((1, 4), 0.5))
    with pytest.raises(ValueError):          # one point, at any d
        multilinear_value(f, np.full((2, 4), 0.5))


def test_multilinear_hessian_memory_is_bounded():
    # 1 + 14 + C(14,2) = 106 rows: a single 106 x 2^14 weight table would
    # take 14 MB; the two half tables take 106 x 2 x 2^7 weights.
    d = 14
    rng = RngStream(71)
    f = make_random_bounded(d, rng)
    x = rng.uniform(size=d)
    tracemalloc.start()
    try:
        multilinear_grad_hess(f, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_bernoulli_sampling_law():
    p = MultilinearProblem(Modular(np.ones(2)))
    rng = RngStream(10)
    x = np.array([0.5, 0.5])
    n = 10**5
    both = sum(bool(p.sample(x, rng).z.all()) for _ in range(n))
    assert abs(both / n - 0.25) < 0.005


def test_logp_grad_matches_fd():
    p = MultilinearProblem(Modular(np.ones(4)))
    rng = RngStream(11)
    x = rng.uniform(0.2, 0.8, size=4)
    s = p.sample(x, rng)
    z = s.z.astype(float)

    def logp(y):
        return float(np.sum(z * np.log(y) + (1 - z) * np.log(1 - y)))

    assert np.allclose(_fd_grad(logp, x), p.logp_grad(x, s), atol=1e-6)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _five_terms(p, x, s, u):
    """The general one-sample Hessian estimate of a multilinear sample,

    F̃ ⟨∇log p, u⟩ ∇log p + ∇²F̃ u + ⟨∇log p, u⟩ ∇F̃ + F̃ ∇²log p u
    + ⟨∇F̃, u⟩ ∇log p,

    summed in that order, with ∇F̃ and ∇²F̃ u the zero arrays of the x-free
    F̃ = f(z) and ∇²log p the diagonal −1 / qz²."""
    grad = hess_u = np.zeros(p.dim)
    qz = p._signed_probs(x, s)
    val, lg, logp_hess_u = p.value(x, s), p.logp_grad(x, s), (-1.0 / (qz * qz)) * u
    lg_u = float(lg @ u)
    return (val * lg_u * lg + hess_u + lg_u * grad + val * logp_hess_u
            + float(grad @ u) * lg)


def _generic_grad(p, x, s):
    """The general one-sample gradient ∇F̃ + F̃ ∇log p of a multilinear
    sample, with ∇F̃ the zero array of the x-free F̃ = f(z)."""
    return np.zeros(p.dim) + p.value(x, s) * p.logp_grad(x, s)


def test_multilinear_hessian_estimate_equals_five_terms():
    # The family's own form against the general five-term formula with its
    # zero terms written out, bit for bit (signed zeros included).
    rng = RngStream(13)
    f = make_facility_location(10, 6, rng.child(0))
    p = MultilinearProblem(f)
    xs = [rng.uniform(0.0, 1.0, size=10) for _ in range(20)]
    clipped = rng.uniform(0.0, 1.0, size=10)
    clipped[[0, 3, 7]] = [0.0, 1.0, 1.0 + 5e-7]  # clamped into [eps, 1 - eps]
    cases = []
    for x in xs + [clipped]:
        u = rng.normal(size=10)
        cases.append((x, p.sample(x, rng), u))
    x = xs[0]
    empty = Sample(z=np.zeros(10, dtype=bool))           # f(empty) = 0
    u_signs = np.array([1.0, -1.0, 0.0, -0.0, 2.0, -3.0, 0.5, -0.5, 0.0, 1.0])
    cases += [(x, empty, u_signs), (x, empty, -u_signs),
              (x, cases[0][1], np.zeros(10)), (x, empty, np.zeros(10)),
              (clipped, Sample(z=np.ones(10, dtype=bool)), u_signs)]
    for x, s, u in cases:
        assert _bits(p.hessian_estimate(x, s, u)) == _bits(_five_terms(p, x, s, u))


def _signed_zero_cases(p, rng):
    """(x, sample) pairs whose f(z) ∇log p has −0.0 entries: f(∅) = 0,
    f(z) = −0.0, and values of both signs."""
    d = p.dim
    xs = [rng.uniform(0.0, 1.0, size=d) for _ in range(10)]
    cases = [(x, p.sample(x, rng)) for x in xs]
    cases += [(xs[0], Sample(z=np.zeros(d, dtype=bool))),
              (xs[1], Sample(z=np.array([True] + [False] * (d - 1)))),
              (xs[2], Sample(z=np.array([False, True] + [False] * (d - 2))))]
    return cases


def test_multilinear_one_sample_grad_equals_generic():
    # The family's own f(z) ∇log p(z; x) + 0.0 against the general
    # ∇F̃ + F̃ ∇log p with ∇F̃ = 0 written out, bit for bit, at the sampling
    # point and away from it.
    rng = RngStream(14)
    d = 5
    values = rng.uniform(-1.0, 1.0, size=2**d)
    values[[0, 1, 2]] = [0.0, -0.0, 0.0]   # f(∅) = 0, f({0}) = −0.0, f({1}) = 0
    for f in (TableSetFunction(values), make_facility_location(d, 4, rng.child(1))):
        p = MultilinearProblem(f)
        for x, s in _signed_zero_cases(p, rng):
            other = rng.uniform(0.0, 1.0, size=d)
            for y in (x, x.copy(), other):
                assert _bits(p.one_sample_grad(y, s)) == _bits(_generic_grad(p, y, s))


def test_multilinear_hessian_estimate_away_from_sampling_point():
    # q is taken from the draw only at the point it was drawn at; at any
    # other point (an equal copy included) it is computed again.
    rng = RngStream(15)
    f = make_facility_location(6, 4, rng.child(0))
    p = MultilinearProblem(f)
    for x, s in _signed_zero_cases(p, rng):
        u = rng.normal(size=6)
        u[[1, 4]] = [0.0, -0.0]
        for y in (x, x.copy(), rng.uniform(0.0, 1.0, size=6), np.full(6, 1.0 + 5e-7)):
            assert _bits(p.hessian_estimate(y, s, u)) == _bits(_five_terms(p, y, s, u))
    with pytest.raises(ValueError, match="outside"):
        p.hessian_estimate(np.full(6, 1.1), p.sample(np.full(6, 0.5), rng), np.ones(6))


def test_multilinear_sample_evaluates_f_once(monkeypatch):
    # f(z) is read once per draw from the 2^d table, which is built once;
    # f itself is never called on z
    reads, calls = [], []
    all_values = problems._all_values

    def counted_all_values(f):
        reads.append(1)
        return all_values(f)

    class Counted(Modular):   # f(z) would be a batch of one
        def batch(self, masks):
            calls.append(len(masks))
            return super().batch(masks)

    monkeypatch.setattr(problems, "_all_values", counted_all_values)
    p = MultilinearProblem(Counted(np.array([1.0, 2.0, 3.0])))
    x = np.full(3, 0.5)
    for seed in (16, 17):
        s = p.sample(x, RngStream(seed))
        assert s.x is x and np.array_equal(s.q, x)
        p.value(x, s), p.one_sample_grad(x, s), p.hessian_estimate(x * 0.5, s, np.ones(3))
        assert s.fz == float(s.z @ p.f.w)
    assert len(reads) == 2 and calls == [8]


def test_multilinear_exact_value_grad_matches_separate_calls():
    rng = RngStream(17)
    for d in (1, 4, 10):
        f = make_facility_location(d, 5, rng.child(d))
        p = MultilinearProblem(f)
        for x in [rng.uniform(0.0, 1.0, size=d) for _ in range(10)] + [np.zeros(d)]:
            F, g = p.exact_value_grad(x)
            assert F.hex() == multilinear_exact(f, x).hex()
            assert _bits(g) == _bits(p.exact_grad(x))
            assert F.hex() == p.exact_value(x).hex()


def test_one_sample_grad_unbiased():
    rng = RngStream(12)
    f = make_facility_location(4, 3, rng)
    p = MultilinearProblem(f)
    x = rng.uniform(0.3, 0.7, size=4)
    _, g_true, _ = multilinear_grad_hess(f, x, want_hess=False)
    n = 40000
    acc = np.zeros(4)
    for _ in range(n):
        s = p.sample(x, rng)
        acc += p.one_sample_grad(x, s)
    assert np.allclose(acc / n, g_true, atol=0.15)


def test_enumeration_budget():
    f = Modular(np.ones(21))
    with pytest.raises(EnumerationBudgetError):
        multilinear_exact(f, np.full(21, 0.5))
    # sampled fallback stays close for a modular function
    v = multilinear_value(f, np.full(21, 0.5), rng=RngStream(13), n_samples=4000)
    assert abs(v - 10.5) < 0.5


_TABLE_KINDS = {
    "facility": lambda d, rng: make_facility_location(d, 6, rng),
    "coverage": lambda d, rng: make_coverage(d, 8, rng),
    "concave-over-modular": lambda d, rng: make_concave_over_modular(d, 4, rng),
    "logdet": make_logdet,
    "modular": lambda d, rng: Modular(rng.uniform(0.0, 1.0, size=d)),
    "table": make_random_bounded,
}


@pytest.mark.parametrize("kind", sorted(_TABLE_KINDS))
@pytest.mark.parametrize("d", [1, 6, 10, 12])
def test_every_table_keeps_its_bits(kind, d):
    # the cached 2^d table is batch on every mask, in its order and its bits,
    # however the kind builds it (facility and coverage double subsets)
    f = _TABLE_KINDS[kind](d, RngStream(70 + d))
    assert _all_values(f).tobytes() == f.batch(_all_masks(d)).tobytes()


def test_logdet_batch_in_chunks_keeps_its_bits(monkeypatch):
    # the stacked slogdet gives each subset the bits of its own call, so a
    # chunk of any length (down to one matrix per call) changes no bit
    f = make_logdet(8, RngStream(3))
    masks = _all_masks(8)
    whole = f.batch(masks)
    monkeypatch.setattr(problems, "_LOGDET_CHUNK", 20)
    assert f.batch(masks).tobytes() == whole.tobytes()
    assert whole.tobytes() == np.array([f(m) for m in masks]).tobytes()


#: kinds whose table is f's ``__call__`` bit for bit; the modular and
#: concave-over-modular tables are a matrix product, which can round apart
_TABLE_IS_CALL = ("coverage", "facility", "logdet", "table")


@pytest.mark.parametrize("kind", sorted(_TABLE_KINDS) + ["modular-signed-zeros"])
@pytest.mark.parametrize("d", [1, 6, 10])
def test_sampled_f_is_the_table_entry(kind, d):
    # the one-sample f(z) is the cached table's entry at z's index, on every
    # subset and on drawn ones, bit for bit
    rng = RngStream(80 + d)
    if kind == "modular-signed-zeros":
        f = Modular(np.resize([-0.0, 0.0, 1.0, -0.0, -2.0], d))
    else:
        f = _TABLE_KINDS[kind](d, rng.child(0))
    p = MultilinearProblem(f)
    table = _all_values(f)
    drawn = [p.sample(rng.uniform(0.0, 1.0, size=d), rng).z for _ in range(20)]
    cases = list(enumerate(_all_masks(d)))
    cases += [(sum(1 << i for i in np.flatnonzero(z)), z) for z in drawn]
    for index, z in cases:
        fz = p.value(None, Sample(z=z))
        assert fz.hex() == float(table[index]).hex()
        if kind in _TABLE_IS_CALL:
            assert fz.hex() == f(z).hex()


def test_table_set_function_batch():
    f = TableSetFunction(np.arange(8, dtype=float))
    masks = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
    assert np.array_equal(f.batch(masks), [0.0, 1.0, 7.0])
    assert f.bound == 7.0


def test_constants_spot_check():
    rng = RngStream(14)
    f = make_coverage(5, 4, rng)
    p = MultilinearProblem(f)
    probes = [rng.uniform(0.2, 0.8, size=5) for _ in range(5)]
    for x in probes:
        for _ in range(200):
            s = p.sample(x, rng)
            assert abs(p.value(x, s)) <= f.bound + 1e-12
