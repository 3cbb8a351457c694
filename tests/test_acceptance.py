"""End-to-end acceptance gate.

One test per headline guarantee, run at fixed tolerances on pinned tiny
instances.  These are slower than the unit suites (the whole file takes a
few minutes); each test prints one pass/fail line under ``pytest -v``.
"""

import functools
import math

import numpy as np
import pytest

from fwlab.bench import brute_force_opt, load_config, run_experiment
from fwlab.constraints import (
    Box,
    L1Ball,
    PartitionMatroid,
    PartitionMatroidPolytope,
    Simplex,
    pipage_round,
)
from fwlab.distsim import (
    _round_schedule,
    run_qfw,
    schedule_from_theorem,
)
from fwlab.estimators import (
    grad_diff_delta,
    two_point_gradient,
    variation_exact_hessian,
    variation_grad_diff,
)
from fwlab.problems import (
    NQP,
    FacilityLocation,
    FiniteSumProblem,
    MultilinearProblem,
    Quadratic,
    Sample,
    _all_masks,
    make_coverage,
    make_facility_location,
    multilinear_exact,
    multilinear_grad_hess,
)
from fwlab.rng import RngStream
from fwlab.solvers import (
    Schedule,
    bcg,
    dbg,
    deterministic_fw,
    fw_gap,
    oblivious_sfw,
    one_sfw,
    scg_baseline,
)
from reference import (encode_decode_batch, exact_variance, make_random_bounded,
                       multilinear_hessian, quadratic_finite_sum, smoothed_value_mc,
                       variance_upper_bound)

_INSTANCE_STREAM = 0x1857


def _normalized_facility(d, n_clients, seed):
    raw = make_facility_location(d, n_clients, RngStream(seed, _INSTANCE_STREAM))
    return FacilityLocation(raw.W / raw.bound)


def _enum_expectation(p, x, fn):
    q = np.clip(x, 1e-9, 1 - 1e-9)
    masks = _all_masks(p.dim)
    w = np.where(masks, q, 1 - q).prod(axis=1)
    acc = None
    for mask, wt in zip(masks, w):
        v = wt * fn(Sample(z=mask))
        acc = v if acc is None else acc + v
    return acc


def _spy_iterates(monkeypatch):
    """A list that collects x_t from each one_sfw exact_hessian variation
    call, in order: iteration t's x_t is its item t - 1."""
    import fwlab.solvers as solvers

    iterates, variation = [], solvers.variation_exact_hessian

    def spy(p, x_t, x_prev, it):
        iterates.append(x_t.copy())
        return variation(p, x_t, x_prev, it)

    monkeypatch.setattr(solvers, "variation_exact_hessian", spy)
    return iterates


def _spy_vertices(monkeypatch, set_):
    """A list that collects each vertex ``set_.lmo_max`` returns."""
    vertices, lmo_max = [], set_.lmo_max

    def spy(g):
        vertices.append(lmo_max(g))
        return vertices[-1]

    monkeypatch.setattr(set_, "lmo_max", spy)
    return vertices


def _log_log_slope(ts, ys):
    A = np.vstack([np.log(ts), np.ones(len(ts))]).T
    slope, _ = np.linalg.lstsq(A, np.log(ys), rcond=None)[0]
    return float(slope)


@functools.lru_cache(maxsize=None)
def _decay_slope(option):
    """Mean squared estimator error decay on a normalized monotone
    instance, slope of log E||grad F - d_t||^2 against log t."""
    f = _normalized_facility(8, 5, 42)
    p = MultilinearProblem(f)
    box = Box(np.full(8, 0.3), np.full(8, 0.7))
    T = 1024
    pts = sorted(set(np.geomspace(32, T, 24).astype(int).tolist()))
    sched = Schedule.preset("nonconvex_min", T)
    errs = np.zeros(len(pts))
    n_seeds = 50
    for seed in range(n_seeds):
        tr = one_sfw(p, box, sched, option, RngStream(seed), log_points=pts)
        errs += np.array([r.est_error for r in tr.records])
    return _log_log_slope(pts, errs / n_seeds)


def test_01_momentum_estimator_error_decays():
    slope = _decay_slope("exact_hessian")
    assert slope <= -0.5, f"decay slope {slope:.3f} > -0.5"


def test_02_grad_diff_matches_exact_hessian_variant(monkeypatch):
    s_exact = _decay_slope("exact_hessian")
    s_gd = _decay_slope("grad_diff")
    assert abs(s_gd - s_exact) <= 0.1, f"slopes {s_gd:.3f} vs {s_exact:.3f}"

    # coupled per-sample bound along real trajectories
    f = _normalized_facility(8, 5, 42)
    p = MultilinearProblem(f)
    box = Box(np.full(8, 0.3), np.full(8, 0.7))
    consts = p.domain_constants(box)
    D = box.diameter()
    T = 200
    sched = Schedule.preset("nonconvex_min", T)
    iterates = _spy_iterates(monkeypatch)
    for seed in range(5):
        iterates.clear()
        one_sfw(p, box, sched, "exact_hessian", RngStream(seed), log_points=())
        assert len(iterates) == T
        for t in range(2, T + 1):
            x_t, x_p = iterates[t - 1], iterates[t - 2]
            it = RngStream(seed).child(t)
            e1 = variation_exact_hessian(p, x_t, x_p, it)
            it = RngStream(seed).child(t)
            delta = grad_diff_delta(sched.eta(t - 1), consts, D)
            e2 = variation_grad_diff(p, x_t, x_p, delta, it)
            err = float(np.linalg.norm(e2.delta_tilde - e1.delta_tilde))
            bound = (1 + consts["B"]) * D**2 * consts["L2"] * delta + 1e-9
            assert err <= bound, f"seed {seed} t {t}: {err} > {bound}"


def test_03_convex_suboptimality_shrinks_with_horizon():
    p = None
    set_ = L1Ball(2.0, 6)
    subs = {}
    for T in (256, 4096):
        vals = []
        for seed in range(20):
            p = Quadratic(np.full(6, 0.2), noise_sigma=1.0)
            tr = oblivious_sfw(p, set_, Schedule.preset("convex_min", T),
                               RngStream(seed), log_points=[T])
            vals.append(tr.records[-1].objective)  # F* = 0 (interior target)
        subs[T] = float(np.mean(vals))
    ratio = subs[256] / subs[4096]
    assert ratio >= 3.0, f"suboptimality ratio {ratio:.2f} < 3"


def test_04_submodular_approximation_guarantee():
    f = make_facility_location(10, 6, RngStream(4, _INSTANCE_STREAM))
    blocks = [list(range(5)), list(range(5, 10))]
    m = PartitionMatroid(blocks, [2, 2], 10)
    poly = PartitionMatroidPolytope(blocks, [2, 2], 10)
    opt, _ = brute_force_opt(f, m)
    thr = (1 - 1 / math.e) * opt - 0.05 * opt
    p = MultilinearProblem(f)
    T = 2000
    hits = 0
    for seed in range(50):
        tr = one_sfw(p, poly, Schedule.preset("dr_submodular_max", T),
                     "exact_hessian", RngStream(seed), log_points=[T])
        if multilinear_exact(f, tr.output) >= thr:
            hits += 1
    assert hits >= 45, f"only {hits}/50 seeds above (1-1/e)OPT - 0.05 OPT"


def test_05_nonconvex_stationarity_gap_shrinks():
    set_ = Simplex(1.0, 20)
    means = {}
    for T in (125, 1000, 8000):
        gaps = []
        for seed in range(20):
            p = NQP(20, RngStream(9, _INSTANCE_STREAM), noise_sigma=1.0)
            tr = oblivious_sfw(p, set_, Schedule.preset("nonconvex_min", T),
                               RngStream(seed), log_points=[T])
            gaps.append(fw_gap(p.exact_grad(tr.output), set_, tr.output))
        means[T] = float(np.mean(gaps))
    assert means[125] > means[1000] > means[8000], f"gaps not decreasing: {means}"
    assert means[8000] <= 0.5 * means[125], \
        f"gap {means[8000]:.3f} > half of {means[125]:.3f}"


def test_06_hessian_estimator_unbiased_by_enumeration():
    f = make_facility_location(4, 3, RngStream(6, _INSTANCE_STREAM))
    p = MultilinearProblem(f)
    rng = RngStream(60)
    x_t = rng.uniform(0.25, 0.75, size=4)
    x_p = rng.uniform(0.25, 0.75, size=4)
    u = x_t - x_p

    # fixed interpolation point: exact match with the Hessian-vector product
    a = 0.37
    xa = a * x_t + (1 - a) * x_p
    H = multilinear_hessian(f, xa)
    exp = _enum_expectation(p, xa, lambda s: p.hessian_estimate(xa, s, u))
    assert np.allclose(exp, H @ u, atol=1e-8)

    # integrating over the interpolation grid recovers the gradient change
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.array([
        _enum_expectation(p, a * x_t + (1 - a) * x_p,
                          lambda s, a=a: p.hessian_estimate(
                              a * x_t + (1 - a) * x_p, s, u))
        for a in grid
    ])
    integral = np.trapezoid(vals, grid, axis=0)
    _, g_t = multilinear_grad_hess(f, x_t)
    _, g_p = multilinear_grad_hess(f, x_p)
    assert np.allclose(integral, g_t - g_p, atol=1e-3)


def test_07_quantizer_variance_formula_and_bound():
    rng = RngStream(70)
    # closed-form variance against an independent reimplementation
    for trial in range(1000):
        d = int(rng.integers(1, 12))
        s = int(rng.integers(1, 17))
        g = rng.normal(size=d) * float(rng.uniform(0.1, 10))
        inf = float(np.max(np.abs(g)))
        ratio = np.abs(g) / inf
        lvl = np.minimum(np.floor(ratio * s), s - 1)
        q = ratio * s - lvl
        ref = float(inf**2 * np.sum(q * (1 - q)) / s**2)
        assert abs(exact_variance(g, s) - ref) <= 1e-12
        if s == 1:
            ident = np.sum(np.abs(g)) * inf - float(g @ g)
            assert abs(exact_variance(g, 1) - ident) <= 1e-9

    # empirical variance under the worst-case bound
    n_rounds, chunk = 10**5, 2 * 10**4
    for gi in range(20):
        g = RngStream(71, gi).normal(size=50)
        for s in (1, 2, 4, 8):
            acc = sq = 0.0
            crng = RngStream(72, 1000 * gi + s)
            for _ in range(n_rounds // chunk):
                dec = encode_decode_batch(g, s, chunk, crng)
                err = np.sum((dec - g) ** 2, axis=1)
                acc += float(err.sum())
                sq += float((err**2).sum())
            mean = acc / n_rounds
            se = math.sqrt(max(sq / n_rounds - mean**2, 0.0) / n_rounds)
            bound = variance_upper_bound(g, s)
            assert mean <= bound * 1.05 + 3 * se, \
                f"g{gi} s={s}: {mean:.4f} > {bound:.4f}"


def _logistic_fs(n=40, d=6, seed=2):
    rng = RngStream(seed)
    A = rng.normal(size=(n, d))
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1
    from fwlab.problems import LogisticL1

    return FiniteSumProblem.from_logistic(LogisticL1(A, y))


def test_08_bit_ledger_exact_integer_accounting():
    fs = _logistic_fs()
    d, M, T = 6, 4, 20
    cfg = schedule_from_theorem("finite_convex", 40, M, d, T=T)
    _, ledger = run_qfw(fs, L1Ball(2.0, 6), cfg, T, RngStream(80))
    per_round = {}
    for t, i, k in _round_schedule(cfg, T):
        z1 = math.ceil(math.log2(cfg.s1_fn(i, k) + 1))
        z2 = math.ceil(math.log2(cfg.s2_fn(i, k) + 1))
        per_round[t] = (32 + d * (z1 + 1), 32 + d * (z2 + 1))
    for t, direction, bits in ledger.entries:
        assert bits == per_round[t][0 if direction == "up" else 1]
    assert ledger.total == sum(b for _, _, b in ledger.entries)
    assert ledger.total == sum(M * up + down for up, down in per_round.values())


def test_09_quantized_run_parity_and_bit_savings():
    fs = _logistic_fs()
    set_ = L1Ball(2.0, 6)
    ref = deterministic_fw(fs.full_grad, set_, 20000, value_oracle=fs.value)
    fstar = fs.value(ref.output)
    T = 31
    cfg_q = schedule_from_theorem("finite_convex", 40, 4, 6, T=T)
    cfg_u = schedule_from_theorem("finite_convex", 40, 4, 6, T=T, mode="unquantized")
    tq, lq = run_qfw(fs, set_, cfg_q, T, RngStream(90))
    tu, lu = run_qfw(fs, set_, cfg_u, T, RngStream(90))
    sub_q = fs.value(tq.output) - fstar
    sub_u = fs.value(tu.output) - fstar
    assert sub_q <= 2 * sub_u + 1e-12, f"{sub_q:.5f} > 2 x {sub_u:.5f}"
    assert lq.total <= lu.total / 4, \
        f"bits ratio {lq.total / lu.total:.3f} > 0.25"


def test_10_single_worker_reduces_to_sequential_reference():
    targets = RngStream(100).normal(size=(20, 5)) * 0.3
    fs = quadratic_finite_sum(targets)
    set_ = L1Ball(2.0, 5)
    T = 15
    cfg = schedule_from_theorem("finite_convex", 20, 1, 5, T=T, mode="unquantized")
    trace, _ = run_qfw(fs, set_, cfg, T, RngStream(101))

    # independent sequential recursive-anchor reference
    rng = RngStream(101)
    wrng = rng.child(0x700)
    x = set_.lmo_min(np.zeros(5))
    x_prev = x
    gbar = np.zeros(5)
    refs = []
    for t, i, k in _round_schedule(cfg, T):
        if k == 1:
            gbar = fs.full_grad(x)
        else:
            idx = wrng.integers(fs.n, size=int(cfg.inner_batch_fn(i, k)))
            gbar = (gbar + fs.batch_grad(x[None], idx)[0]
                    - fs.batch_grad(x_prev[None], idx)[0])
        v = set_.lmo_min(gbar)
        x_prev = x
        x = x + float(cfg.eta_fn(i, k, t)) * (v - x)
        refs.append(x.copy())
    assert np.allclose(trace.output, refs[-1], atol=1e-12)
    for rec, xr in zip(trace.records, refs):
        assert abs(rec.objective - fs.value(xr)) <= 1e-12


def test_11_smoothing_and_two_point_estimates():
    rng = RngStream(110)
    c = rng.normal(size=5)
    fns = [
        (lambda Y: np.vecdot(Y, c), float(np.linalg.norm(c))),
        (lambda Y: np.sqrt(np.vecdot(Y, Y)), 1.0),
    ]
    delta = 0.1
    for fn, G in fns:
        for k in range(50):
            x = rng.normal(size=5)
            mean, se = smoothed_value_mc(fn, x, delta, 2000, rng.child(k))
            assert abs(mean - fn(x[None, :])[0]) <= delta * G + 3 * se

    # two-point estimator is unbiased for linear functions
    x0 = rng.normal(size=5)
    ests = np.array([
        two_point_gradient(fns[0][0], x0, 0.05, 50, rng.child(1000 + j))
        for j in range(200)
    ])
    mean = ests.mean(axis=0)
    se = ests.std(axis=0, ddof=1) / math.sqrt(len(ests))
    assert np.all(np.abs(mean - c) <= 3 * se + 1e-12)


def test_12_black_box_continuous_greedy_guarantee():
    f = make_coverage(8, 6, RngStream(12, _INSTANCE_STREAM))
    blocks = [list(range(4)), list(range(4, 8))]
    m = PartitionMatroid(blocks, [2, 2], 8)
    poly = PartitionMatroidPolytope(blocks, [2, 2], 8)
    opt, _ = brute_force_opt(f, m)
    thr = (1 - 1 / math.e) * opt - 0.07 * opt
    oracle = lambda Y: multilinear_exact(f, np.clip(Y, 0.0, 1.0))
    for seed in range(30):
        out = bcg(oracle, poly, RngStream(seed), 1000, 0.02, 8)
        assert poly.contains(out)
        val = multilinear_exact(f, out)
        assert val >= thr, f"seed {seed}: {val:.3f} < {thr:.3f}"


def test_13_discrete_greedy_with_lossless_rounding():
    f = make_facility_location(10, 6, RngStream(13, _INSTANCE_STREAM))
    blocks = [list(range(5)), list(range(5, 10))]
    poly = PartitionMatroidPolytope(blocks, [2, 2], 10)
    m = poly.matroid
    opt, _ = brute_force_opt(f, m)
    thr = (1 - 1 / math.e) * opt - 0.08 * opt
    vals = []
    for seed in range(30):
        S = dbg(f, poly, 800, 0.05, 20, 1, RngStream(seed))
        assert m.is_base(S)
        vals.append(float(f(S)))
    assert float(np.mean(vals)) >= thr, f"mean {np.mean(vals):.3f} < {thr:.3f}"

    # rounding never loses multilinear value on enumerable instances
    rng = RngStream(130)
    for trial in range(20):
        x = np.zeros(10)
        for _ in range(6):
            x += poly.lmo_max(rng.normal(size=10) + 1.0) / 6
        S = pipage_round(x, m, f, rng.child(trial))
        assert m.is_base(S)
        assert float(f(S)) >= multilinear_exact(f, x) - 1e-9


def test_14_multilinear_derivative_norm_bounds():
    rng = RngStream(140)
    for trial in range(20):
        d = int(rng.integers(3, 11))
        f = make_random_bounded(d, rng.child(trial))
        M = f.bound
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, size=d)
            _, g = multilinear_grad_hess(f, x)
            H = multilinear_hessian(f, x)
            assert np.linalg.norm(g) <= 2 * M * math.sqrt(d) + 1e-9
            assert np.linalg.norm(H, 2) <= 4 * M * math.sqrt(d * (d - 1)) + 1e-9


def test_15_structural_invariants(tmp_path, monkeypatch):
    # feasibility of every iterate + one-sample accounting + fw_gap >= 0
    f = _normalized_facility(6, 4, 15)
    p = MultilinearProblem(f)
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [1, 1], 6)
    T = 64
    iterates = _spy_iterates(monkeypatch)
    vertices = _spy_vertices(monkeypatch, poly)
    tr = one_sfw(p, poly, Schedule.preset("dr_submodular_max", T),
                 "exact_hessian", RngStream(150), log_points=range(1, T + 1))
    assert tr.meta["oracle_calls"] == T
    assert len(iterates) == T
    for x in iterates:
        assert poly.contains(x)
    assert len(vertices) == T
    assert np.allclose(tr.output, np.mean(vertices, axis=0), rtol=0.0, atol=1e-12)

    q = Quadratic(np.full(4, 0.2), noise_sigma=1.0)
    ball = L1Ball(1.0, 4)
    tq = oblivious_sfw(q, ball, Schedule.preset("convex_min", 50),
                       RngStream(151), log_points=range(1, 51))
    assert tq.meta["oracle_calls"] == 50
    assert all(r.fw_gap is not None and r.fw_gap >= 0.0 for r in tq.records)

    # replica consistency and ledger determinism
    fs = _logistic_fs()
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=16)
    ta, la = run_qfw(fs, L1Ball(2.0, 6), cfg, 16, RngStream(152))
    tb, lb = run_qfw(fs, L1Ball(2.0, 6), cfg, 16, RngStream(152))
    assert np.array_equal(ta.output, tb.output)
    assert la.entries == lb.entries

    # byte-identical trace files for identical config + seed
    ini = (tmp_path / "cfg.ini")
    ini.write_text(
        "[experiment]\nname = inv\nseeds = 0\n"
        "[problem]\nkind = quadratic\ndim = 3\n"
        "[constraint]\nkind = l1ball\nradius = 1.0\n"
        "[solver]\nalgorithm = oblivious_sfw\nmode = convex_min\nt = 12\n")
    run_experiment(load_config(str(ini), out_dir=tmp_path / "a"))
    run_experiment(load_config(str(ini), out_dir=tmp_path / "b"))
    a = sorted((tmp_path / "a").glob("*-s0.csv"))[0].read_bytes()
    b = sorted((tmp_path / "b").glob("*-s0.csv"))[0].read_bytes()
    assert a == b


def test_16_variation_term_beats_momentum_only():
    # PAPER.md's claim on test_03's instance: the one-sample variation term
    # removes momentum's bias, so on the same seeds and rho_t its mean
    # ||grad F(x_T) - d_T||^2 is below momentum-only's.  Measured 11.1x
    # (ten disjoint blocks of ten seeds: 9.2x to 22.9x); the margin is 5x.
    set_ = L1Ball(2.0, 6)
    T = 1024
    errs = {}
    for solver in (oblivious_sfw, scg_baseline):
        vals = []
        for seed in range(10):
            p = Quadratic(np.full(6, 0.2), noise_sigma=1.0)
            tr = solver(p, set_, Schedule.preset("convex_min", T),
                        RngStream(seed), log_points=[T])
            vals.append(tr.records[-1].est_error)
        errs[solver.__name__] = float(np.mean(vals))
    gain = errs["scg_baseline"] / errs["oblivious_sfw"]
    assert gain >= 5.0, f"momentum-only error only {gain:.2f}x the one-sample error"

