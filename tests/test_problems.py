import tracemalloc

import numpy as np
import pytest

from fwlab.problems import (
    _all_masks,
    _all_values,
    Coverage,
    EnumerationBudgetError,
    FacilityLocation,
    LogisticL1,
    Modular,
    MultilinearProblem,
    NQP,
    Quadratic,
    RobustLRMR,
    Sample,
    StochasticProblem,
    TableSetFunction,
    make_coverage,
    make_concave_over_modular,
    make_facility_location,
    make_logdet,
    make_random_bounded,
    multilinear_exact,
    multilinear_grad_hess,
    multilinear_value,
)
from fwlab.rng import RngStream


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
    g = np.mean([p.grad(x, p.sample(x, rng)) for _ in range(20000)], axis=0)
    assert np.allclose(g, x - p.target, atol=0.02)
    s0 = Sample(z=np.zeros(2))
    assert np.allclose(p.grad(p.target, s0), 0.0)


def test_nqp_structure():
    p = NQP(6, RngStream(1))
    assert np.all(p.H <= 0)
    assert np.allclose(p.b, -p.H.T @ np.ones(6))
    x = RngStream(2).uniform(size=6)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-5)
    # gradient nonnegative on the unit box: monotone structure
    assert np.all(p.exact_grad(np.zeros(6)) >= 0)
    with pytest.raises(ValueError):
        NQP(3, RngStream(0), H=np.ones((3, 3)))


def test_logistic_grad_matches_fd():
    rng = RngStream(3)
    A = rng.normal(size=(8, 2))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    p = LogisticL1(A, y)
    x = np.array([0.4, -0.2])
    s = Sample(z=3)
    assert np.allclose(_fd_grad(lambda w: p.value(w, s), x), p.grad(x, s), atol=1e-6)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-6)


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


def test_lrmr_loss_shape():
    obs = np.array([[0, 0, 1.0], [1, 1, -2.0]])
    p = RobustLRMR(2, 2, obs, sigma=1.0)
    assert p._psi(np.array([0.0]))[0] == 0.0
    assert p._psi_d1(np.array([0.0]))[0] == 0.0
    assert p._psi(np.array([100.0]))[0] == pytest.approx(1.0)
    x = RngStream(5).normal(size=4)
    assert np.allclose(_fd_grad(p.exact_value, x), p.exact_grad(x), atol=1e-6)
    s = Sample(z=1)
    assert np.allclose(_fd_grad(lambda w: p.value(w, s), x), p.grad(x, s), atol=1e-6)


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


# The subset-weight formula as a mask product, one point at a time, and
# coordinate pinning one point per partial derivative: the references the
# stacked kernel must match bit for bit.

def _ref_exact(f, x):
    masks = _all_masks(f.ground_size)
    w = np.where(masks, x[None, :], 1.0 - x[None, :]).prod(axis=1)
    return float(_all_values(f) @ w)


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
    d = 12                     # 256 rows per block; 600 rows make 3 blocks
    rng = RngStream(52)
    f = make_random_bounded(d, rng)
    X = rng.uniform(-0.2, 1.2, size=(600, d))
    out = multilinear_exact(f, X)
    assert np.all(out == [_ref_exact(f, x) for x in X])
    assert multilinear_exact(f, X[:0]).shape == (0,)


@pytest.mark.parametrize("d", [1, 4, 10, 12])
def test_multilinear_grad_hess_equals_pinning(d):
    rng = RngStream(60 + d)
    X = _exactness_points(d, rng)[::2] if d == 12 else _exactness_points(d, rng)
    for f in _exactness_functions(d, rng):
        for x in X:
            F, g, H = multilinear_grad_hess(f, x)
            rF, rg, rH = _ref_grad_hess(f, x)
            assert isinstance(F, float) and F == rF
            assert np.all(g == rg) and np.all(H == rH)
            F2, g2, none = multilinear_grad_hess(f, x, want_hess=False)
            assert F2 == rF and np.all(g2 == rg) and none is None


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
    # 4*C(14,2) + 2*14 + 1 = 393 pinned points: a single 393 x 2^14 weight
    # table would take 51 MB; row blocks keep the peak near one 8 MB block.
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
    # hessian of logp is diagonal
    u = rng.normal(size=4)
    diag = np.where(s.z, -1.0 / x**2, -1.0 / (1 - x) ** 2)
    assert np.allclose(p.logp_hess_vec(x, s, u), diag * u)


def test_logp_hess_scalar_example():
    p = MultilinearProblem(Modular(np.ones(1)))
    s = Sample(z=np.array([True]))
    assert p.logp_hess_vec(np.array([0.5]), s, np.array([1.0]))[0] == pytest.approx(-4.0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_multilinear_hessian_estimate_equals_five_terms():
    # The fused method against the generic five-term formula it overrides,
    # bit for bit (signed zeros included).
    rng = RngStream(13)
    f = make_facility_location(10, 6, rng.child(0))
    p = MultilinearProblem(f)
    generic = StochasticProblem.hessian_estimate
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
        assert _bits(p.hessian_estimate(x, s, u)) == _bits(generic(p, x, s, u))


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
            assert abs(p.value(x, s)) <= p.constants["B"] + 1e-12
