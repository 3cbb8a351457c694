import numpy as np
import pytest

from fwlab.estimators import (
    VariationEstimate,
    _sample_between,
    grad_diff_delta,
    lbar_constant,
    momentum_update,
    two_point_gradient,
    variation_exact_hessian,
    variation_grad_diff,
    variation_oblivious,
)
from fwlab.problems import (
    LogisticL1,
    Modular,
    MultilinearProblem,
    Quadratic,
    Sample,
    make_facility_location,
    multilinear_grad_hess,
    _all_masks,
)
from fwlab.rng import RngStream, sample_unit_sphere
from reference import TableSetFunction, multilinear_hessian, smoothed_value_mc


def _enum_expectation(p, x, fn):
    """Exact E_z~p(.;x)[fn(sample)] over all subsets."""
    q = np.clip(x, 1e-9, 1 - 1e-9)
    masks = _all_masks(p.dim)
    w = np.where(masks, q, 1 - q).prod(axis=1)
    acc = None
    for mask, wt in zip(masks, w):
        v = wt * fn(Sample(z=mask))
        acc = v if acc is None else acc + v
    return acc


# --- momentum --------------------------------------------------------------

def test_momentum_full_reset():
    d = np.array([9.0, 9.0])
    out = momentum_update(d, np.array([1.0, 1.0]), np.array([4.0, 5.0]), 1.0)
    assert np.array_equal(out, [4.0, 5.0])


def test_momentum_arithmetic():
    d = np.array([2.0, 0.0])
    out = momentum_update(d, np.array([0.0, 2.0]), np.array([4.0, 4.0]), 0.5)
    assert np.allclose(out, [3.0, 3.0])


def test_momentum_identity():
    d = np.array([1.0, -1.0])
    out = momentum_update(d, np.zeros(2), np.array([7.0, 7.0]), 0.0)
    assert np.array_equal(out, d)


def test_momentum_rho_range():
    with pytest.raises(ValueError):
        momentum_update(np.zeros(1), np.zeros(1), np.zeros(1), 1.5)


# --- five-term Hessian estimator -------------------------------------------

def test_hessian_estimator_zero_for_modular():
    p = MultilinearProblem(Modular(np.ones(3)))
    x = np.full(3, 0.5)
    u = np.ones(3)
    exp = _enum_expectation(p, x, lambda s: p.hessian_estimate(x, s, u))
    assert np.allclose(exp, 0.0, atol=1e-10)


def test_hessian_estimator_zero_direction():
    p = MultilinearProblem(Modular(np.ones(3)))
    s = Sample(z=np.array([True, False, True]))
    assert np.allclose(p.hessian_estimate(np.full(3, 0.4), s, np.zeros(3)), 0.0)


def test_hessian_estimator_matches_enumeration():
    rng = RngStream(1)
    f = make_facility_location(4, 3, rng)
    p = MultilinearProblem(f)
    x = rng.uniform(0.2, 0.8, size=4)
    u = rng.normal(size=4)
    H = multilinear_hessian(f, x)
    exp = _enum_expectation(p, x, lambda s: p.hessian_estimate(x, s, u))
    assert np.allclose(exp, H @ u, atol=1e-8)


def test_hessian_estimator_oblivious_reduces_to_hess_vec():
    p = Quadratic(np.zeros(3), noise_sigma=1.0)
    s = Sample(z=np.array([0.3, -0.1, 0.2]))
    u = np.array([1.0, 2.0, 3.0])
    assert np.allclose(p.hessian_estimate(np.zeros(3), s, u), u)


# --- variation estimators --------------------------------------------------

def test_variation_zero_displacement():
    p = MultilinearProblem(Modular(np.ones(3)))
    rng = RngStream(2)
    x = np.full(3, 0.4)
    est = variation_exact_hessian(p, x, x, rng)
    assert np.allclose(est.delta_tilde, 0.0)


def test_variation_quadratic_deterministic():
    p = Quadratic(np.zeros(3), noise_sigma=2.0)
    rng = RngStream(3)
    x_t = np.array([0.5, 0.1, -0.2])
    x_p = np.array([0.1, 0.0, 0.3])
    est = variation_exact_hessian(p, x_t, x_p, rng)
    assert np.allclose(est.delta_tilde, x_t - x_p)


def test_variation_unbiased_monte_carlo():
    rng = RngStream(4)
    f = make_facility_location(6, 4, rng)
    p = MultilinearProblem(f)
    x_t = rng.uniform(0.35, 0.65, size=6)
    x_p = x_t - 0.05
    _, g_t = multilinear_grad_hess(f, x_t)
    _, g_p = multilinear_grad_hess(f, x_p)
    n = 4 * 10**4
    acc = np.zeros(6)
    sq = np.zeros(6)
    for i in range(n):
        it = rng.child(i)
        d = variation_exact_hessian(p, x_t, x_p, it).delta_tilde
        acc += d
        sq += d * d
    mean = acc / n
    se = np.sqrt((sq / n - mean**2) / n)
    assert np.all(np.abs(mean - (g_t - g_p)) <= 3 * se + 1e-12)


def test_grad_diff_requires_positive_delta():
    p = MultilinearProblem(Modular(np.ones(2)))
    with pytest.raises(ValueError, match="delta"):
        variation_grad_diff(p, np.full(2, 0.6), np.full(2, 0.4), 0.0, RngStream(0))


def test_grad_diff_refuses_an_oblivious_problem():
    p = Quadratic(np.zeros(2), noise_sigma=1.0)
    with pytest.raises(ValueError, match="non-oblivious"):
        variation_grad_diff(p, np.full(2, 0.6), np.full(2, 0.4), 0.1, RngStream(0))


def _five_term_bits(p, xa, s, u, delta):
    """The general five-term composition of grad_diff's terms: ∇²F̃ u and
    ∇²log p u replaced by central differences of the probes clipped into
    [0, 1]^d, and ∇F̃ and its difference phi_F the zero arrays of the
    x-free F̃ = f(z)."""
    xp, xm = np.clip(xa + delta * u, 0.0, 1.0), np.clip(xa - delta * u, 0.0, 1.0)
    grad = phi_F = np.zeros(p.dim)
    phi_lp = (p.logp_grad(xp, s) - p.logp_grad(xm, s)) / (2.0 * delta)
    val, lg = p.value(xa, s), p.logp_grad(xa, s)
    lg_u = float(lg @ u)
    dt = val * lg_u * lg + phi_F + lg_u * grad + val * phi_lp + float(grad @ u) * lg
    return dt.tobytes()


class _Fixed:
    """A stream whose every child draws ``a`` as its scalar uniform and ``r``
    as its uniform vector."""

    def __init__(self, a, r):
        self.a, self.r = a, r

    def child(self, label):
        return self

    def random(self, size=None):
        return self.a if size is None else self.r


def test_grad_diff_equals_five_term_composition_bitwise():
    # f(z) (<∇log p, u> ∇log p + phi_lp) + 0.0 against the five-term
    # estimate with phi_F = 0, bit for bit: f(∅) = 0, f(z) = -0.0, signed
    # zeros in u and probes clipped into the unit box.
    rng = RngStream(21)
    d = 6
    facility = MultilinearProblem(make_facility_location(d, 4, rng.child(0)))
    values = rng.child(1).uniform(-1.0, 1.0, size=2**d)
    values[[0, 1]] = [0.0, -0.0]                       # f(∅) = 0, f({0}) = -0.0
    signed = MultilinearProblem(TableSetFunction(values))
    n_clamped = n_negative_zero = 0
    for k in range(60):
        p = signed if k % 2 else facility
        x_prev = rng.uniform(0.0, 1.0, size=d)
        x_t = np.clip(x_prev + rng.normal(scale=0.3, size=d), 0.0, 1.0)
        if k % 5 == 0:
            x_t[[1, 4]] = x_prev[[1, 4]]                # u = 0.0 there
        if k % 7 == 0:
            x_t[2], x_prev[2] = 0.4, 0.4 + 1e-12      # a tiny negative u
        # z = ∅, z = {0} (f = -0.0 for ``signed``), or a random draw
        r = (np.ones(d), np.r_[0.0, np.ones(d - 1)], rng.uniform(0.0, 1.0, size=d))[k % 3]
        it, delta = _Fixed(float(rng.uniform()), r), (1e-3, 0.2, 2.0, 0.05)[k % 4]
        est = variation_grad_diff(p, x_t, x_prev, delta, it)
        xa, s = _sample_between(p, x_t, x_prev, it)
        assert est.delta_tilde.tobytes() == _five_term_bits(p, xa, s, x_t - x_prev, delta)
        n_clamped += est.clamped
        n_negative_zero += s.fz == 0.0 and np.signbit(s.fz)
    assert 0 < n_clamped < 60
    assert n_negative_zero > 0


class _Row:
    """A stream whose every child draws row ``i`` as its integer."""

    def __init__(self, i):
        self.i = i

    def child(self, label):
        return self

    def integers(self, n):
        return self.i


def test_oblivious_variation_exact_expectation():
    rng = RngStream(7)
    A = rng.normal(size=(2, 3))
    y = np.array([1.0, -1.0])
    p = LogisticL1(A, y)
    x_t = np.array([0.2, -0.1, 0.3])
    x_p = np.zeros(3)
    exp = np.mean([
        variation_oblivious(p, x_t, x_p, _Row(i)).delta_tilde for i in range(2)
    ], axis=0)
    assert np.allclose(exp, p.exact_grad(x_t) - p.exact_grad(x_p), atol=1e-12)


def test_oblivious_variation_rejects_nonoblivious():
    p = MultilinearProblem(Modular(np.ones(2)))
    with pytest.raises(ValueError):
        variation_oblivious(p, np.full(2, 0.5), np.full(2, 0.4), _Row(0))


# --- zeroth-order ----------------------------------------------------------

def test_two_point_linear_unbiased():
    c = np.array([1.0, -2.0, 0.5])
    rng = RngStream(8)
    n = 10**5
    est = two_point_gradient(lambda Y: np.vecdot(Y, c), np.zeros(3), 0.1, n, rng)
    # E[uu^T] = I/d makes the estimator exact in expectation for linear F
    assert np.all(np.abs(est - c) < 0.05)


def test_two_point_constant_zero():
    rng = RngStream(9)
    est = two_point_gradient(lambda Y: np.full(len(Y), 5.0), np.ones(4), 0.2, 16, rng)
    assert np.allclose(est, 0.0)


def test_two_point_symmetry_1d():
    rng = RngStream(10)
    est = two_point_gradient(lambda Y: Y[:, 0] ** 2, np.zeros(1), 0.5, 8, rng)
    assert est[0] == pytest.approx(0.0, abs=1e-12)


def _two_point_per_probe(value_oracle, x, delta, batch, rng):
    """The estimator with one oracle call per probe point, in probe order."""
    d = x.size
    g = np.zeros(d)
    for _ in range(batch):
        u = sample_unit_sphere(rng, d, 1)[0]
        g += (value_oracle(x + delta * u) - value_oracle(x - delta * u)) * u
    return (d / (2.0 * delta)) * g / batch


_C5 = np.array([0.7, -1.3, 2.1, 0.4, -0.2])


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_two_point_equals_per_probe_loop(batch):
    x = RngStream(30).uniform(size=5)
    for t in range(3):
        est = two_point_gradient(lambda Y: np.vecdot(np.sin(Y), _C5), x, 0.05,
                                 batch, RngStream(31, t))
        ref = _two_point_per_probe(lambda y: float(np.sin(y) @ _C5), x, 0.05,
                                   batch, RngStream(31, t))
        assert np.all(est == ref)


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_two_point_stochastic_oracle_equals_per_probe_loop(batch):
    # the oracle draws from its own stream, one draw per probe row
    x = RngStream(32).uniform(size=5)
    noise_rows, noise_points = RngStream(33, 1), RngStream(33, 1)

    def rows(Y):
        return np.array([float(np.sin(y) @ _C5) + noise_rows.normal() for y in Y])

    def point(y):
        return float(np.sin(y) @ _C5) + noise_points.normal()

    for t in range(3):
        est = two_point_gradient(rows, x, 0.05, batch, RngStream(34, t))
        ref = _two_point_per_probe(point, x, 0.05, batch, RngStream(34, t))
        assert np.all(est == ref)


class _ListStream:
    """Serves ``normal`` draws from a fixed list, in order, in any shape."""

    def __init__(self, values):
        self.values, self.pos = np.asarray(values, dtype=float), 0

    def normal(self, size=None):
        n = int(np.prod(size))
        out = self.values[self.pos:self.pos + n]
        self.pos += n
        return out.reshape(size)


def _sphere_one_by_one(rng, d):
    """The rejection loop, one Gaussian vector at a time."""
    while True:
        g = rng.normal(size=d)
        n = np.linalg.norm(g)
        if n > 1e-12:
            return g / n


@pytest.mark.parametrize("rejected", [[1], [0, 2], [3]])
def test_two_point_sphere_rejection_as_one_by_one(rejected):
    # Rows of norm <= 1e-12 are dropped and replaced by the next rows of
    # the stream: the batch draw keeps the same rows, in the same order,
    # and leaves the stream where the one-by-one loop does.
    d, batch = 4, 4
    G = RngStream(35).normal(size=(batch + len(rejected) + 2, d))
    G[rejected] = [[0.0, -0.0, 1e-13, 0.0]] + [[0.0] * d] * (len(rejected) - 1)
    x = RngStream(36).uniform(size=d)
    c = np.array([0.5, -1.0, 2.0, 0.25])
    fast, slow = _ListStream(G.ravel()), _ListStream(G.ravel())
    est = two_point_gradient(lambda Y: np.vecdot(np.sin(Y), c), x, 0.05, batch, fast)
    g = np.zeros(d)
    for _ in range(batch):
        u = _sphere_one_by_one(slow, d)
        g += (float(np.sin(x + 0.05 * u) @ c) - float(np.sin(x - 0.05 * u) @ c)) * u
    ref = (d / (2.0 * 0.05)) * g / batch
    assert est.tobytes() == ref.tobytes()
    assert fast.pos == slow.pos == (batch + len(rejected)) * d
    U = sample_unit_sphere(_ListStream(G.ravel()), d, size=batch)
    one = _ListStream(G.ravel())
    assert U.tobytes() == np.array([_sphere_one_by_one(one, d)
                                    for _ in range(batch)]).tobytes()


def test_two_point_signed_zero_sum():
    # equal probe values give 0.0 * u, −0.0 where u < 0; the sum is +0.0
    # there, as a loop adding to zeros gives
    for batch in (1, 2):
        stream = _ListStream([-1.0, 2.0, -0.5] * batch)
        est = two_point_gradient(lambda Y: np.zeros(len(Y)), np.ones(3), 0.1,
                                 batch, stream)
        assert est.tobytes() == np.zeros(3).tobytes()


def test_smoothed_value_linear_and_lipschitz():
    rng = RngStream(11)
    c = np.array([2.0, 1.0])
    m, se = smoothed_value_mc(lambda Y: np.vecdot(Y, c), np.ones(2), 0.3, 4000, rng)
    assert abs(m - 3.0) <= 3 * se
    # delta = 0 short-circuits
    m0, se0 = smoothed_value_mc(lambda Y: np.vecdot(Y, c), np.ones(2), 0.0, 1, rng)
    assert m0 == 3.0 and se0 == 0.0


def test_lbar_and_delta_schedule():
    consts = {"B": 1.0, "G": 2.0, "L": 3.0, "L2": 4.0}
    lbar = lbar_constant(1.0, 2.0, 3.0)
    assert lbar == pytest.approx(np.sqrt(4 * 16 + 16 * 16 + 36 + 36))
    d = grad_diff_delta(0.1, consts, D=2.0)
    assert d == pytest.approx(np.sqrt(3) * 0.1 * lbar / (2.0 * 4.0 * 2.0))
    with pytest.raises(ValueError):
        grad_diff_delta(0.1, {**consts, "L2": 0.0}, D=2.0)
