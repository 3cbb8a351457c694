import numpy as np
import pytest

from fwlab import problems
from fwlab.constraints import (
    Box,
    L1Ball,
    PartitionMatroid,
    PartitionMatroidPolytope,
    Simplex,
)
from fwlab.problems import (
    NQP,
    FacilityLocation,
    Modular,
    MultilinearProblem,
    Quadratic,
    make_coverage,
    make_facility_location,
    multilinear_exact,
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


def test_schedule_presets():
    s = Schedule.preset("convex_min", 10)
    assert s.rho(2) == 1.0 and s.rho(3) == 0.5
    assert s.eta(4) == 0.25
    s2 = Schedule.preset("nonconvex_min", 8)
    assert s2.rho(2) == 1.0
    assert s2.eta(1) == pytest.approx(8 ** (-2 / 3))
    s3 = Schedule.preset("dr_submodular_max", 5)
    assert s3.eta(3) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        Schedule.preset("bogus", 5)
    # T >= 1 holds for a schedule built directly too, as bcg builds its own
    for T in (0, -1):
        with pytest.raises(ValueError, match="T must be >= 1"):
            Schedule(T, "dr_submodular_max", lambda t: 1.0, lambda t: 1.0)
    # the recursion's first step from d_0 = 0 takes rho_1 = 1: d_1 = g_1
    assert [Schedule.preset(m, 5).rho(1) for m in Schedule.MODES] == [1.0] * 3
    # a custom rho_1 outside (0, 1] raises at t = 1, in the driver too
    p, ball = Quadratic(np.zeros(2)), L1Ball(1.0, 2)
    for rho_1 in (0.0, 1.5):
        s4 = Schedule(5, "convex_min", lambda t: rho_1 if t == 1 else 0.5,
                      lambda t: 0.5)
        for run in (lambda: s4.rho(1),
                    lambda: scg_baseline(p, ball, s4, RngStream(0))):
            with pytest.raises(ValueError, match="rho_1="):
                run()


def test_fw_gap_examples():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    assert fw_gap(np.zeros(2), box, np.zeros(2)) == 0.0
    assert fw_gap(np.array([1.0, 0.0]), box, np.zeros(2)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fw_gap(np.ones(2), box, np.array([2.0, 0.0]))


def test_fw_gap_nonnegative_random():
    rng = RngStream(1)
    sets = [L1Ball(1.5, 5), Box(np.zeros(5), np.ones(5)), Simplex(2.0, 5),
            PartitionMatroidPolytope([[0, 1, 2], [3, 4]], [1, 1], 5)]
    for s in sets:
        for _ in range(250):
            # random feasible point: convex combination of vertices
            x = np.zeros(5)
            for _ in range(4):
                x += s.lmo_min(rng.normal(size=5)) / 4
            g = rng.normal(size=5)
            assert fw_gap(g, s, x) >= 0.0


def test_fw_gap_stationary_quadratic():
    # interior constrained minimizer: gradient 0 there
    p = Quadratic(np.array([0.1, 0.1]))
    s = L1Ball(1.0, 2)
    assert fw_gap(p.exact_grad(p.target), s, p.target) <= 1e-8


def test_deterministic_fw_simplex_quadratic():
    d = 4
    s = Simplex(1.0, d)
    tr = deterministic_fw(lambda x: x, s, 100,
                          value_oracle=lambda x: 0.5 * float(x @ x))
    # optimum is the uniform point, value 1/(2d)
    val = 0.5 * float(tr.output @ tr.output)
    assert val - 1.0 / (2 * d) <= 0.02
    # trace objective non-increasing after the first couple of steps
    objs = [r.objective for r in tr.records]
    assert all(objs[k + 1] <= objs[k] + 1e-12 for k in range(2, len(objs) - 1))


def test_deterministic_fw_linear_one_step():
    s = Simplex(1.0, 3)
    c = np.array([3.0, 1.0, 2.0])
    tr = deterministic_fw(lambda x: c, s, 1)
    x1, v = s.lmo_min(np.zeros(3)), s.lmo_min(c)
    assert np.array_equal(tr.output, x1 + 2.0 / 3.0 * (v - x1))


def test_deterministic_fw_t0_returns_start():
    s = Simplex(1.0, 3)
    tr = deterministic_fw(lambda x: x, s, 0)
    assert np.array_equal(tr.output, s.lmo_min(np.zeros(3)))


def test_one_sfw_noiseless_quadratic_descends():
    p = Quadratic(np.full(3, 0.2), noise_sigma=0.0)
    s = L1Ball(2.0, 3)
    tr = oblivious_sfw(p, s, Schedule.preset("convex_min", 500), RngStream(2),
                       log_points=[1, 500])
    assert tr.records[-1].objective <= tr.records[0].objective
    assert tr.records[-1].objective <= 1e-3


def test_one_sample_accounting():
    p = Quadratic(np.zeros(3), noise_sigma=1.0)
    s = L1Ball(1.0, 3)
    T = 64
    tr = oblivious_sfw(p, s, Schedule.preset("convex_min", T), RngStream(3))
    assert tr.meta["oracle_calls"] == T
    pm = MultilinearProblem(Modular(np.ones(3)))
    poly = PartitionMatroidPolytope([[0, 1, 2]], [1], 3)
    tr2 = one_sfw(pm, poly, Schedule.preset("dr_submodular_max", T),
                  "exact_hessian", RngStream(4))
    assert tr2.meta["oracle_calls"] == T


def test_one_sfw_evaluates_each_oracle_once_per_iteration(monkeypatch):
    # Outside log points an exact_hessian iteration reads f once (the
    # sample's f(z), from the 2^d table, which is built once and never by
    # calling f) and the clamped probabilities twice: at the interpolation
    # point it samples from (reused by the Hessian estimate) and at x_t for
    # the one-sample gradient.
    reads, tables, probs = [], [], []

    class Counted(FacilityLocation):
        def batch(self, masks):
            raise AssertionError("f evaluated outside its table")

        def table(self):
            tables.append(1)
            return super().table()

    all_values = problems._all_values

    def counted_all_values(f):
        reads.append(1)
        return all_values(f)

    probs_of = MultilinearProblem._probs

    def counted_probs(self, x):
        probs.append(1)
        return probs_of(self, x)

    monkeypatch.setattr(problems, "_all_values", counted_all_values)
    monkeypatch.setattr(MultilinearProblem, "_probs", counted_probs)
    f = Counted(make_facility_location(6, 4, RngStream(40)).W)
    p = MultilinearProblem(f)
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5]], [1, 2], 6)
    T = 50
    one_sfw(p, poly, Schedule.preset("dr_submodular_max", T), "exact_hessian",
            RngStream(41), log_points=[])
    assert len(reads) == T and tables == [1]    # one f(z) per iteration
    assert len(probs) == 2 * T   # t = 1 too, with x_prev = x_1


def test_oblivious_sfw_two_gradients_per_iteration(monkeypatch):
    calls = []
    grad = Quadratic.grad

    def counted_grad(self, x, s):
        calls.append(1)
        return grad(self, x, s)

    monkeypatch.setattr(Quadratic, "grad", counted_grad)
    T = 40
    oblivious_sfw(Quadratic(np.full(3, 0.2), noise_sigma=1.0), L1Ball(1.0, 3),
                  Schedule.preset("convex_min", T), RngStream(42), log_points=[])
    assert len(calls) == 2 * T   # t = 1 too, with x_prev = x_1


def _pinned_record_values(tr):
    out = []
    for r in tr.records:
        out += [r.t, r.oracle_calls, r.objective.hex(), r.est_error.hex(),
                None if r.fw_gap is None else r.fw_gap.hex()]
    return out, [v.hex() for v in tr.output]


def test_one_sfw_exact_hessian_pinned_at_seed():
    # Record values and output of short runs, pinned bit for bit; taken
    # when f(z) and the clamped probabilities were still evaluated once per
    # use rather than once per iteration.
    f = make_facility_location(8, 5, RngStream(31, 1))
    poly = PartitionMatroidPolytope([[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1], 8)
    tr = one_sfw(MultilinearProblem(f), poly, Schedule.preset("dr_submodular_max", 40),
                 "exact_hessian", RngStream(9), log_points=[1, 2, 17, 40])
    records, output = _pinned_record_values(tr)
    assert records == [
        1, 1, "0x0.0p+0", "0x1.90dc0a524278ep+5", None,
        2, 2, "0x1.8498564f7ae24p-3", "0x1.737c591819220p+5", None,
        17, 17, "0x1.39c8e2da28f74p+1", "0x1.2af11bce2500ap+7", None,
        40, 40, "0x1.10fc8e637bcf6p+2", "0x1.7e4015e0ecb60p+7", None,
    ]
    assert output == [
        "0x1.999999999999ap-5", "0x1.0000000000002p+0", "0x1.e66666666666bp-1",
        "0x0.0p+0", "0x1.999999999999ap-5", "0x1.8000000000001p-2",
        "0x1.cccccccccccccp-3", "0x1.6666666666667p-2",
    ]


def test_one_sfw_grad_diff_on_box_pinned_at_seed():
    p = MultilinearProblem(make_coverage(6, 5, RngStream(32, 1)))
    box = Box(np.full(6, 0.3), np.full(6, 0.7))
    tr = one_sfw(p, box, Schedule.preset("nonconvex_min", 30), "grad_diff",
                 RngStream(10), log_points=[1, 2, 13, 30])
    records, output = _pinned_record_values(tr)
    assert records == [
        1, 1, "0x1.28f148745f54fp+1", "0x1.6e70cd3159a04p+6", "0x0.0p+0",
        2, 2, "0x1.4192bef37e919p+1", "0x1.4fcee8417d4f6p+8", "0x1.7ec71d0fc3992p-3",
        13, 13, "0x1.8697b3f042cc8p+1", "0x1.42da28144e87fp+5", "0x1.48cff43d30e86p-1",
        30, 30, "0x1.7fc6d02eb3e14p+1", "0x1.3c7c9f927cb65p+5", "0x1.32eb5f4d1904ap-1",
    ]
    assert tr.meta["output_index"] == 3
    assert output == [
        "0x1.593ae35b374fdp-2", "0x1.83a773f03ca2cp-2", "0x1.83a773f03ca2cp-2",
        "0x1.593ae35b374fdp-2", "0x1.83a773f03ca2cp-2", "0x1.3333333333333p-2",
    ]


def test_oblivious_sfw_quadratic_pinned_at_seed():
    p = Quadratic(np.array([0.9, -0.4, 0.3, 0.0, 0.7, -1.1]), noise_sigma=1.0)
    tr = oblivious_sfw(p, L1Ball(2.0, 6), Schedule.preset("convex_min", 50),
                       RngStream(11), log_points=[1, 2, 25, 50])
    records, output = _pinned_record_values(tr)
    assert records == [
        1, 1, "0x1.4b851eb851eb9p+2", "0x1.32431e333cc87p+1", "0x1.7333333333333p+3",
        2, 2, "0x1.947ae147ae148p+0", "0x1.8bd2d4965804ap+1", "0x1.199999999999ap+2",
        25, 25, "0x1.5907f6e5d4c3cp-2", "0x1.770261968cab7p-3", "0x1.a7d27d27d27d8p-2",
        50, 50, "0x1.377fbf0986042p-2", "0x1.843ddfc0dc90cp-3", "0x1.1e00e547cca69p-1",
    ]
    assert output == [
        "0x1.1eb851eb851eap-1", "-0x1.47ae147ae147ap-4", "0x1.47ae147ae147ap-5",
        "0x0.0p+0", "0x1.47ae147ae147bp-1", "-0x1.0a3d70a3d70a4p-1",
    ]


def test_scg_baseline_multilinear_matroid_pinned_at_seed():
    # Pinned before the variation estimators drew their own samples.
    p = MultilinearProblem(make_coverage(7, 5, RngStream(33, 1)))
    poly = PartitionMatroidPolytope([[0, 1, 2], [3, 4, 5, 6]], [1, 2], 7)
    tr = scg_baseline(p, poly, Schedule.preset("dr_submodular_max", 30),
                      RngStream(12), log_points=[1, 2, 11, 30])
    records, output = _pinned_record_values(tr)
    assert records == [
        1, 1, "0x0.0p+0", "0x1.08c2efbe853bap+5", None,
        2, 2, "0x1.e11cde901537ep-3", "0x1.ea08f325c7b68p+4", None,
        11, 11, "0x1.f6488b0e0a832p+0", "0x1.bc049b49f21a7p+4", None,
        30, 30, "0x1.03dcd3de76832p+2", "0x1.2840431239f94p+5", None,
    ]
    assert output == [
        "0x1.fffffffffffffp-1", "0x0.0p+0", "0x0.0p+0", "0x1.fffffffffffffp-1",
        "0x1.9999999999999p-3", "0x1.1111111111111p-4", "0x1.7777777777777p-1",
    ]


def test_one_sfw_exact_hessian_nqp_pinned_at_seed():
    # An oblivious problem takes the generic five-term Hessian estimate;
    # nonconvex_min picks the output iterate from its own stream.
    p = NQP(5, RngStream(34, 1), noise_sigma=1.0)
    tr = one_sfw(p, Simplex(1.0, 5), Schedule.preset("nonconvex_min", 30),
                 "exact_hessian", RngStream(14), log_points=[1, 2, 19, 30])
    records, output = _pinned_record_values(tr)
    assert records == [
        1, 1, "0x1.c927916c26d13p+1", "0x1.79aff6d718847p+3", "0x1.337df2a812638p-2",
        2, 2, "0x1.c78f9c4580652p+1", "0x1.258e889fff4a3p+1", "0x1.3d9f9a7bd7b88p-2",
        19, 19, "0x1.a3400cdf8f1dfp+1", "0x1.095a7a0ae10a9p-2", "0x1.01bc1451fda23p-2",
        30, 30, "0x1.8d61cdcf969fep+1", "0x1.1c80a79067231p-2", "0x1.2334e07973fb7p-4",
    ]
    assert tr.meta["output_index"] == 16
    assert output == [
        "0x1.8d3b3e10d9093p-3", "0x1.924543b12f2e2p-3", "0x1.7c5f1c4b75816p-3",
        "0x1.6f2c863753cf1p-6", "0x1.9b1d6895cbe6bp-2",
    ]


def test_dr_mode_output_is_vertex_average():
    # cardinality function: every base is optimal with F = sum of budgets
    pm = MultilinearProblem(Modular(np.ones(4)))
    poly = PartitionMatroidPolytope([[0, 1], [2, 3]], [1, 1], 4)
    T = 100
    tr = one_sfw(pm, poly, Schedule.preset("dr_submodular_max", T),
                 "exact_hessian", RngStream(5))
    assert np.allclose(tr.output, tr.meta["vertex_average"], atol=1e-12)
    assert multilinear_exact(pm.f, tr.output) == pytest.approx(2.0, abs=1e-9)


def test_nonconvex_output_rule_reproducible():
    p = Quadratic(np.full(3, 0.1), noise_sigma=0.5)
    s = L1Ball(1.0, 3)
    sched = Schedule.preset("nonconvex_min", 40)
    t1 = oblivious_sfw(p, s, sched, RngStream(6))
    t2 = oblivious_sfw(p, s, sched, RngStream(6))
    assert t1.output_rule == "uniform_random_iterate"
    assert t1.meta["output_index"] == t2.meta["output_index"]
    assert np.array_equal(t1.output, t2.output)


def test_oblivious_rejects_nonoblivious():
    pm = MultilinearProblem(Modular(np.ones(2)))
    poly = PartitionMatroidPolytope([[0, 1]], [1], 2)
    with pytest.raises(ValueError):
        oblivious_sfw(pm, poly, Schedule.preset("dr_submodular_max", 5), RngStream(0))


def test_scg_baseline_runs_and_descends():
    p = Quadratic(np.full(4, 0.2), noise_sigma=0.2)
    s = L1Ball(2.0, 4)
    tr = scg_baseline(p, s, Schedule.preset("convex_min", 800), RngStream(7),
                      log_points=[1, 800])
    assert tr.records[-1].objective < tr.records[0].objective
    assert tr.records[-1].objective < 0.01


def test_solver_reproducibility_bitwise():
    p = Quadratic(np.full(3, 0.3), noise_sigma=1.0)
    s = L1Ball(1.0, 3)
    a = oblivious_sfw(p, s, Schedule.preset("convex_min", 50), RngStream(8))
    b = oblivious_sfw(p, s, Schedule.preset("convex_min", 50), RngStream(8))
    assert np.array_equal(a.output, b.output)


# --- zeroth-order solvers --------------------------------------------------

def test_bcg_linear_near_lp_optimum():
    d = 4
    c = np.array([1.0, 3.0, 2.0, 0.5])
    poly = PartitionMatroidPolytope([[0, 1], [2, 3]], [1, 1], d)
    opt = float(poly.lmo_max(c) @ c)
    out = bcg(lambda Y: np.vecdot(np.clip(Y, 0, 1), c), poly, RngStream(10),
              200, 0.01, d)
    assert poly.contains(out, tol=1e-8)
    assert float(c @ out) >= opt - 0.05 * opt


def test_bcg_single_step_is_shifted_vertex():
    d = 2
    poly = PartitionMatroidPolytope([[0, 1]], [1], d)
    delta = 0.05
    out = bcg(lambda Y: np.sum(Y, axis=1), poly, RngStream(11), 1, delta, 2)
    # output = v_1 + delta*1 with v_1 a vertex of the shrunk set
    assert poly.contains(out, tol=1e-8)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-9)


def test_bcg_iterates_stay_in_shrunk_domain(monkeypatch):
    # The driver checks each iterate's membership; the spy records them.
    import fwlab.solvers as solvers

    seen = []
    check = solvers._assert_member

    def spy(set_, x, what):
        if what.startswith("iterate"):
            seen.append(x.copy())
        check(set_, x, what)

    monkeypatch.setattr(solvers, "_assert_member", spy)
    rng = RngStream(12)
    f = make_coverage(4, 3, rng)
    poly = PartitionMatroidPolytope([[0, 1], [2, 3]], [1, 1], 4)
    delta = 0.05
    out = bcg(lambda Y: multilinear_exact(f, np.clip(Y, 0, 1)), poly,
              RngStream(13), 50, delta, 4)
    assert len(seen) == 50
    for x in seen:
        assert np.all(x >= -1e-9) and np.all(x <= 1 - 2 * delta + 1e-9)
        assert poly.contains(x + delta, tol=1e-8)
    assert poly.contains(out, tol=1e-8)


def test_dbg_modular_exact():
    w = np.array([1.0, 5.0, 2.0, 4.0, 3.0, 6.0])
    f = Modular(w)
    m = PartitionMatroid([[0, 1, 2], [3, 4, 5]], [1, 1], 6)
    S = dbg(f, m, 60, 0.05, 10, 1, RngStream(14))
    assert m.is_base(S)
    assert f(S) == pytest.approx(5.0 + 6.0)


def test_dbg_pinned_at_seed(monkeypatch):
    # The sampled oracle serves probe rows in order, so oracle_rng is used
    # as with one call per probe: the last smoothed gradient and the
    # rounded set are pinned to that implementation's values, bit for bit.
    import fwlab.solvers as solvers

    grads = []
    two_point = solvers.two_point_gradient

    def spy(*args):
        grads.append(two_point(*args))
        return grads[-1]

    monkeypatch.setattr(solvers, "two_point_gradient", spy)
    f = make_facility_location(6, 4, RngStream(21, 5))
    m = PartitionMatroid([[0, 1, 2], [3, 4, 5]], [1, 2], 6)
    S = dbg(f, m, 40, 0.05, 5, 3, RngStream(7))
    assert S.astype(int).tolist() == [0, 1, 0, 0, 1, 1]
    assert len(grads) == 40
    assert [v.hex() for v in grads[-1]] == [
        "0x1.8fc09e8eabcacp+1", "0x1.5866d0dff6d3bp-1", "0x1.9e62c03869351p+2",
        "0x1.b7dffac0a0a80p+0", "-0x1.10c52080b248dp+2", "-0x1.588fdac17b711p-1",
    ]


def test_dbg_zero_budgets():
    f = Modular(np.ones(4))
    m = PartitionMatroid([[0, 1], [2, 3]], [0, 0], 4)
    S = dbg(f, m, 10, 0.05, 5, 1, RngStream(15))
    assert not S.any()


def test_dbg_validates_args():
    f = Modular(np.ones(2))
    m = PartitionMatroid([[0, 1]], [1], 2)
    with pytest.raises(ValueError):
        dbg(f, m, 10, 0.05, 0, 1, RngStream(0))
    with pytest.raises(ValueError):
        dbg(f, m, 10, 0.7, 5, 1, RngStream(0))
