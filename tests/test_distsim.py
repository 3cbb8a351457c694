import dataclasses
import math

import numpy as np
import pytest

from fwlab.constraints import L1Ball
from fwlab.distsim import (
    BitLedger,
    QfwConfig,
    UNQUANTIZED,
    _round_schedule,
    _send_rows,
    run_qfw,
    schedule_from_theorem,
)
from fwlab.problems import FiniteSumProblem, LogisticL1, Quadratic, Sample
from fwlab.quantize import decode, encode_partition
from fwlab.rng import RngStream
from reference import logistic_value, quadratic_finite_sum


def _tiny_logistic(n=40, d=6, seed=2):
    rng = RngStream(seed)
    A = rng.normal(size=(n, d))
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1
    return FiniteSumProblem.from_logistic(LogisticL1(A, y))


def _loop_mean_grad(grad_fns, x, idx):
    """The per-component reference: a `g += row` loop, then the mean; each
    component's row is computed once."""
    rows = {}
    g = np.zeros(x.size)
    for i in idx:
        if i not in rows:
            rows[i] = grad_fns[i](x)
        g += rows[i]
    return g / max(len(idx), 1)


#: d of the anchor-scale cases, N = 4,000: numpy picks a reduction's order by
#: the shape, so the sums are checked at the qfw-logistic-n4000 size too
_ANCHOR_DIMS = (1, 2, 8, 13)


def _index_cases(n, rng):
    dup = rng.integers(n, size=3 * n)  # with replacement
    assert len(set(dup.tolist())) < dup.size
    return {"duplicates": dup, "single": np.array([n - 1]),
            "full": np.arange(n)}


@pytest.mark.parametrize("n, d", [pytest.param(40, d, id=str(d)) for d in (1, 6)]
                         + [pytest.param(4000, d, id=f"n4000-d{d}") for d in _ANCHOR_DIMS])
def test_logistic_finite_sum_equals_per_sample_loop(n, d):
    rng = RngStream(11)
    A = rng.normal(size=(n, d))
    y = np.where(rng.normal(size=n) < 0, -1.0, 1.0)
    p = LogisticL1(A, y)
    fs = FiniteSumProblem.from_logistic(p)
    grad_fns = [lambda x, i=i: p.one_sample_grad(x, Sample(z=i)) for i in range(n)]
    for _ in range(3 if n < 100 else 1):
        x = rng.normal(size=d)
        for name, idx in _index_cases(n, rng).items():
            assert np.array_equal(fs.batch_grad(x[None], idx)[0],
                                  _loop_mean_grad(grad_fns, x, idx)), name
        assert np.array_equal(fs.full_grad(x),
                              _loop_mean_grad(grad_fns, x, range(n)))
        assert fs.value(x) == float(np.mean(
            [logistic_value(p, x, Sample(z=i)) for i in range(n)]))


@pytest.mark.parametrize("d", [1, 5])
def test_quadratic_finite_sum_equals_per_component_loop(d):
    rng = RngStream(12)
    n = 20
    targets = rng.normal(size=(n, d))
    parts = [Quadratic(t) for t in targets]
    fs = quadratic_finite_sum(targets)
    grad_fns = [q.exact_grad for q in parts]
    for _ in range(3):
        x = rng.normal(size=d)
        for name, idx in _index_cases(n, rng).items():
            assert np.array_equal(fs.batch_grad(x[None], idx)[0],
                                  _loop_mean_grad(grad_fns, x, idx)), name
        assert np.array_equal(fs.full_grad(x),
                              _loop_mean_grad(grad_fns, x, range(n)))
        assert fs.value(x) == float(np.mean([q.exact_value(x) for q in parts]))


def test_finite_sum_keeps_sign_of_zero_like_the_loop():
    # every row's gradient is exactly −0.0 in the first coordinate
    fs = quadratic_finite_sum(np.array([[0.0, 1.0], [0.0, 2.0]]))
    x = np.array([-0.0, 0.0])
    g = fs.batch_grad(x[None], [0, 1])[0]
    ref = _loop_mean_grad([lambda x: x - np.array([0.0, 1.0]),
                           lambda x: x - np.array([0.0, 2.0])], x, [0, 1])
    assert np.array_equal(np.signbit(g), np.signbit(ref))
    assert np.array_equal(g, ref)


def _logistic_parts(n, d, rng, zero_col):
    A = rng.normal(size=(n, d))
    y = np.where(rng.normal(size=n) < 0, -1.0, 1.0)
    if zero_col:  # every gradient row is −0.0 in the first coordinate
        A[:, 0] = 0.0
        y[:] = 1.0
    p = LogisticL1(A, y)
    return (FiniteSumProblem.from_logistic(p),
            [lambda x, i=i: p.one_sample_grad(x, Sample(z=i)) for i in range(n)])


def _quadratic_parts(n, d, rng, zero_col):
    targets = rng.normal(size=(n, d))
    if zero_col:  # with x[0] = −0.0, every gradient row is −0.0 there
        targets[:, 0] = 0.0
    return (quadratic_finite_sum(targets),
            [Quadratic(t).exact_grad for t in targets])


@pytest.mark.parametrize("zero_col", [False, True], ids=["plain", "neg-zero-col"])
@pytest.mark.parametrize("n, M, d", [pytest.param(24, 4, d, id=str(d)) for d in (1, 6)]
                         + [pytest.param(4000, M, d, id=f"n4000-M{M}-d{d}")
                            for d in _ANCHOR_DIMS for M in (1, 4)])
@pytest.mark.parametrize("parts", [_logistic_parts, _quadratic_parts],
                         ids=["logistic", "quadratic"])
def test_stacked_batch_grad_equals_per_worker_loop(parts, n, M, d, zero_col):
    # Row m of one stacked call is, bit for bit, worker m's own loop over
    # its block at its own replica.
    rng = RngStream(13)
    n_local = n // M
    fs, grad_fns = parts(n, d, rng, zero_col)
    X = rng.normal(size=(M, d))
    if zero_col:
        X[:, 0] = -0.0
    offsets = np.arange(M)[:, None] * n_local
    blocks = {
        "anchor": np.arange(n).reshape(M, n_local),
        "random": rng.integers(n_local, size=(M, 5)) + offsets,
        "duplicates": np.array([[2, 0, 2]] * M) + offsets,
    }
    Y = rng.normal(size=(M, d))
    for name, B in blocks.items():
        G = fs.batch_grad(X, B.ravel())
        assert G.shape == (M, d)
        for m in range(M):
            ref = _loop_mean_grad(grad_fns, X[m], B[m])
            assert G[m].tobytes() == ref.tobytes(), (name, m)
            assert G[m].tobytes() == fs.batch_grad(X[m:m + 1], B[m])[0].tobytes()
        # X and Y stacked as 2M rows, each block at its own row, as two calls
        both = fs.batch_grad(np.concatenate([X, Y]), np.concatenate([B.ravel()] * 2))
        assert both.tobytes() == np.concatenate(
            [G, fs.batch_grad(Y, B.ravel())]).tobytes(), name
    # range(n) reads every component in place, as np.arange(n) names them
    for points in (X, X[:1]):
        assert (fs.batch_grad(points, range(n)).tobytes()
                == fs.batch_grad(points, np.arange(n)).tobytes())
    with pytest.raises(ValueError, match="equal blocks"):
        fs.batch_grad(X if M > 1 else np.concatenate([X, Y]), np.arange(n_local + 1))
    # A (d,) point is refused, not read as a stack: at d = 1, the quadratic
    # sum would broadcast (n,) - (n, 1) into an (n, n) array and average it.
    for bad in (X[0], X[None], np.zeros((M, d + 1))):
        with pytest.raises(ValueError, match="stack of points"):
            fs.batch_grad(bad, np.arange(n))


class _OneBadVertex:
    """An l1 ball whose ``lmo_min`` moves the vertex of its ``bad_call``-th
    call (counting from 1, the start point included).  It wraps the ball
    rather than subclassing it: perfbench's tracer binds every FeasibleSet
    subclass alive in the process, and its test runs in the same session."""

    def __init__(self, radius, dim, bad_call):
        self.ball = L1Ball(radius, dim)
        self.calls, self.bad_call = 0, bad_call

    def __getattr__(self, name):
        return getattr(self.ball, name)

    def lmo_min(self, g):
        v = self.ball.lmo_min(g)
        self.calls += 1
        if self.calls == self.bad_call:
            v = v.copy()
            v[0] += 1e-3
        return v


@pytest.mark.parametrize("replica", [0, 3])
def test_one_divergent_replica_is_caught(replica):
    fs = _tiny_logistic()
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=5)
    run_qfw(fs, _OneBadVertex(2.0, 6, bad_call=0), cfg, 5, RngStream(6))
    # call 1 is the start point, calls 2-5 are round 1; this is round 2
    bad = _OneBadVertex(2.0, 6, bad_call=6 + replica)
    with pytest.raises(AssertionError, match="replica divergence"):
        run_qfw(fs, bad, cfg, 5, RngStream(6))


def test_theorem_schedule_finite_convex_hand_values():
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=10)
    assert cfg.period_fn(3) == 4
    assert cfg.inner_batch_fn(3, 2) == 1
    assert cfg.eta_fn(3, 2, 0) == pytest.approx(2.0 / 6.0)
    # level formulas, rounded up
    assert cfg.s1_fn(3, 1) == math.ceil(math.sqrt(6 * 16 / 4))
    assert cfg.s2_fn(3, 1) == math.ceil(math.sqrt(6 * 16))
    assert cfg.s1_fn(3, 2) == math.ceil(math.sqrt(6 * 4 / 4))


def test_theorem_schedule_nonconvex():
    cfg = schedule_from_theorem("finite_nonconvex", 16, 4, 5, T=25)
    assert cfg.period_fn(1) == 4
    assert cfg.inner_batch_fn(1, 2) == 1
    assert cfg.eta_fn(1, 2, 7) == pytest.approx(0.2)


def test_theorem_schedule_m1_degenerate():
    cfg = schedule_from_theorem("finite_convex", 20, 1, 4, T=10)
    # all /M factors drop
    assert cfg.s1_fn(2, 1) == cfg.s2_fn(2, 1)
    assert cfg.inner_batch_fn(2, 2) == 2


def test_partition_mismatch_rejected():
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=10)
    fs3 = _tiny_logistic(n=39)
    with pytest.raises(ValueError):
        run_qfw(fs3, L1Ball(1.0, 6), cfg, 10, RngStream(0))


def _reference_spider_fw(fs, set_, cfg, T, rng):
    """Independent sequential reference for M=1, unquantized links."""
    d = fs.dim
    x = set_.lmo_min(np.zeros(d))
    wrng = rng.child(0x700)
    gbar = np.zeros(d)
    x_prev = x
    outs = []
    for t, i, k in _round_schedule(cfg, T):
        if k == 1:
            g = fs.full_grad(x)
            gbar = g
        else:
            sz = int(cfg.inner_batch_fn(i, k))
            idx = wrng.integers(fs.n, size=sz)
            gbar = (gbar + fs.batch_grad(x[None], idx)[0]
                    - fs.batch_grad(x_prev[None], idx)[0])
        v = set_.lmo_min(gbar)
        x_prev = x
        x = x + float(cfg.eta_fn(i, k, t)) * (v - x)
        outs.append(x.copy())
    return outs


def test_m1_matches_sequential_reference():
    fs = _tiny_logistic(n=20, d=5, seed=3)
    set_ = L1Ball(2.0, 5)
    T = 15
    cfg = schedule_from_theorem("finite_convex", 20, 1, 5, T=T, mode="unquantized")
    trace, ledger = run_qfw(fs, set_, cfg, T, RngStream(9))
    ref = _reference_spider_fw(fs, set_, cfg, T, RngStream(9))
    assert np.allclose(trace.output, ref[-1], atol=1e-12)
    # intermediate objectives agree too
    for rec, xr in zip(trace.records, ref):
        assert rec.objective == pytest.approx(fs.value(xr), abs=1e-12)


def test_anchor_exact_with_unquantized_links():
    fs = _tiny_logistic(n=24, d=4, seed=4)
    set_ = L1Ball(1.5, 4)
    cfg = schedule_from_theorem("finite_convex", 24, 4, 4, T=1, mode="unquantized")
    # a single anchor round: gbar must equal the exact full gradient at x0
    x0 = set_.lmo_min(np.zeros(4))
    trace, _ = run_qfw(fs, set_, cfg, 1, RngStream(5))
    g = fs.full_grad(x0)
    v = set_.lmo_min(g)
    eta = float(cfg.eta_fn(1, 1, 1))
    assert np.allclose(trace.output, x0 + eta * (v - x0), atol=1e-12)


@pytest.mark.parametrize("mode", ["quantized", "fl"])
def test_one_batch_grad_call_per_round(mode, monkeypatch):
    # Anchors (and fl rounds) name the whole range; a correction round
    # evaluates X and X_prev in one stacked call.
    fs = _tiny_logistic()
    calls, inner = [], fs.batch_grad

    def counted(x, idx):
        calls.append((len(x), idx))
        return inner(x, idx)

    monkeypatch.setattr(fs, "batch_grad", counted)
    T, M = 20, 4
    cfg = schedule_from_theorem("finite_convex", 40, M, 6, T=T, mode=mode)
    run_qfw(fs, L1Ball(2.0, 6), cfg, T, RngStream(6))
    assert len(calls) == T
    for (rows, idx), (_, i, k) in zip(calls, _round_schedule(cfg, T)):
        if k == 1 or mode == "fl":
            assert rows == M and idx == range(40)
        else:
            assert rows == 2 * M and len(idx) == 2 * M * cfg.inner_batch_fn(i, k)


def test_replica_consistency_and_determinism():
    fs = _tiny_logistic()
    set_ = L1Ball(2.0, 6)
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=20)
    t1, l1 = run_qfw(fs, set_, cfg, 20, RngStream(6))
    t2, l2 = run_qfw(fs, set_, cfg, 20, RngStream(6))
    assert np.array_equal(t1.output, t2.output)
    assert l1.entries == l2.entries


def test_bit_ledger_exact():
    fs = _tiny_logistic()
    d, M = 6, 4
    set_ = L1Ball(2.0, 6)
    T = 20
    cfg = schedule_from_theorem("finite_convex", 40, M, d, T=T)
    _, ledger = run_qfw(fs, set_, cfg, T, RngStream(7))
    expected = 0
    for t, i, k in _round_schedule(cfg, T):
        z1 = math.ceil(math.log2(cfg.s1_fn(i, k) + 1))
        z2 = math.ceil(math.log2(cfg.s2_fn(i, k) + 1))
        expected += M * (32 + d * (z1 + 1)) + (32 + d * (z2 + 1))
    assert ledger.total == expected
    assert ledger.total == sum(b for _, _, b in ledger.entries)
    assert ledger.cum_up + ledger.cum_down == ledger.total


@pytest.mark.parametrize("mode", ["quantized", "unquantized", "fl"])
def test_ledger_lists_each_message_of_each_round(mode):
    # one stacked send per link per round still charges each message on its
    # own: M "up" entries, then one "down" entry, every round, in order
    fs = _tiny_logistic()
    d, M, T = 6, 4, 20
    cfg = schedule_from_theorem("finite_convex", 40, M, d, T=T, mode=mode)
    _, ledger = run_qfw(fs, L1Ball(2.0, d), cfg, T, RngStream(7))

    def bits(s):
        if mode != "quantized":
            return 32 * d
        return 32 + d * (math.ceil(math.log2(s + 1)) + 1)

    expected = []
    for t, i, k in _round_schedule(cfg, T):
        expected += [(t, "up", bits(cfg.s1_fn(i, k)))] * M
        expected.append((t, "down", bits(cfg.s2_fn(i, k))))
    assert ledger.entries == expected
    assert all(type(b) is int for _, _, b in ledger.entries)


def test_stacked_send_charges_each_row_as_one_message():
    # a k-row message costs k times one row: the ledger gets k entries of
    # bits_per_row
    V = RngStream(3).normal(size=(3, 5))
    V[1] = 0.0
    for s in (1, 3, UNQUANTIZED):
        rngs = [RngStream(4, r) for r in range(3)]
        twins = [RngStream(4, r) for r in range(3)]
        ledger = BitLedger()
        out = _send_rows(V, s, rngs if s else None, ledger, 2, "up")
        if s == UNQUANTIZED:
            per_row, sent = 32 * 5, V
        else:
            msg = encode_partition(V, s, twins)
            per_row, sent = msg.bits_per_row, decode(msg)
        assert per_row == (32 * 5 if s == UNQUANTIZED
                           else 32 + 5 * (math.ceil(math.log2(s + 1)) + 1))
        assert ledger.entries == [(2, "up", per_row)] * 3
        assert ledger.cum_up == 3 * per_row
        assert out.tobytes() == sent.tobytes()


def test_unquantized_bits_are_raw_floats():
    fs = _tiny_logistic()
    set_ = L1Ball(2.0, 6)
    T = 10
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=T, mode="unquantized")
    _, ledger = run_qfw(fs, set_, cfg, T, RngStream(8))
    assert ledger.total == T * (4 + 1) * 32 * 6


def test_quantized_tracks_unquantized():
    fs = _tiny_logistic()
    set_ = L1Ball(2.0, 6)
    T = 31
    cfg_q = schedule_from_theorem("finite_convex", 40, 4, 6, T=T)
    cfg_u = schedule_from_theorem("finite_convex", 40, 4, 6, T=T, mode="unquantized")
    tq, lq = run_qfw(fs, set_, cfg_q, T, RngStream(3))
    tu, lu = run_qfw(fs, set_, cfg_u, T, RngStream(3))
    assert lq.total < lu.total
    # objectives land in the same neighbourhood
    assert abs(tq.records[-1].objective - tu.records[-1].objective) < 0.05


def test_fl_mode_runs_without_guarantee():
    fs = _tiny_logistic()
    set_ = L1Ball(2.0, 6)
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=8, mode="fl")
    trace, ledger = run_qfw(fs, set_, cfg, 8, RngStream(4))
    assert trace.meta["guarantee"] == "none"
    assert ledger.total == 8 * (4 + 1) * 32 * 6
    assert float(np.sum(np.abs(trace.output))) <= set_.radius + 1e-9


@pytest.mark.parametrize("setting", ["finite_convex", "finite_nonconvex"])
def test_fl_steps_follow_the_quantized_schedule(setting):
    # fl takes round t's step from the same (i, k, t) as the quantized mode
    T = 12
    steps = {}
    for mode in ("quantized", "fl"):
        cfg = schedule_from_theorem(setting, 40, 4, 6, T=T, mode=mode)
        calls = steps[mode] = []

        def eta(i, k, t, eta_fn=cfg.eta_fn, calls=calls):
            calls.append((t, eta_fn(i, k, t)))
            return calls[-1][1]

        run_qfw(_tiny_logistic(), L1Ball(2.0, 6),
                dataclasses.replace(cfg, eta_fn=eta), T, RngStream(4))
    assert [t for t, _ in steps["fl"]] == list(range(1, T + 1))
    assert steps["fl"] == steps["quantized"]
    if setting == "finite_convex":
        assert steps["fl"][1][1] < steps["fl"][0][1] == 1.0


def test_unquantized_mode_sends_raw_vectors():
    cfg = schedule_from_theorem("finite_convex", 40, 4, 6, T=10,
                                mode="unquantized")
    assert cfg.s1_fn(3, 1) == UNQUANTIZED
    assert cfg.s2_fn(3, 2) == UNQUANTIZED
    _, ledger = run_qfw(_tiny_logistic(), L1Ball(2.0, 6), cfg, 10,
                        RngStream(8))
    assert ledger.total == 10 * (4 + 1) * 32 * 6


def test_config_validation():
    with pytest.raises(ValueError):
        QfwConfig(M=0, setting="finite_convex", period_fn=None,
                  inner_batch_fn=None, eta_fn=None, s1_fn=None, s2_fn=None)
    with pytest.raises(ValueError):
        QfwConfig(M=2, setting="bogus", period_fn=None, inner_batch_fn=None,
                  eta_fn=None, s1_fn=None, s2_fn=None)


def test_empty_period_rejected():
    fs = _tiny_logistic(n=8, d=3, seed=6)
    cfg = schedule_from_theorem("finite_convex", 8, 2, 3, T=4)
    cfg.period_fn = lambda i: 0
    with pytest.raises(ValueError):
        run_qfw(fs, L1Ball(1.0, 3), cfg, 4, RngStream(0))
