import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.rng import (
    AHEAD_BLOCK,
    NumericsError,
    RngStream,
    _mix64,
    _ServedStream,
    check_finite,
    children_ahead,
    first_doubles,
    sample_unit_sphere,
)
from reference import sample_unit_ball


def test_same_key_same_sequence():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    assert np.array_equal(a.normal(size=100), b.normal(size=100))
    assert np.array_equal(a.integers(0, 1000, size=50), b.integers(0, 1000, size=50))


def test_distinct_streams_differ():
    a = RngStream(123, 7)
    b = RngStream(123, 8)
    assert not np.array_equal(a.normal(size=100), b.normal(size=100))


def test_child_streams_deterministic_and_distinct():
    r = RngStream(5)
    assert np.array_equal(r.child(3).random(20), RngStream(5).child(3).random(20))
    assert not np.array_equal(r.child(3).random(20), r.child(4).random(20))
    # nested splits stay reproducible
    assert np.array_equal(
        r.child(2).child(9).random(8), RngStream(5).child(2).child(9).random(8)
    )


@given(seed=st.integers(0, 2**32), d=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_sphere_norm_one(seed, d):
    u = sample_unit_sphere(RngStream(seed), d, 1)[0]
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


@given(seed=st.integers(0, 2**32), d=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_ball_inside(seed, d):
    v = sample_unit_ball(RngStream(seed), d)
    assert np.linalg.norm(v) <= 1.0 + 1e-12


def test_sphere_d1_is_sign():
    r = RngStream(0)
    vals = {float(sample_unit_sphere(r, 1, 1)[0, 0]) for _ in range(50)}
    assert vals <= {1.0, -1.0}


def test_invalid_dimension():
    with pytest.raises(ValueError):
        sample_unit_sphere(RngStream(0), 0, 1)
    with pytest.raises(ValueError):
        sample_unit_ball(RngStream(0), 0)


def test_sphere_coordinate_mean_vanishes():
    r = RngStream(11)
    n = 10**5
    draws = sample_unit_sphere(r, 3, n)   # n rows: n draws made one by one
    assert np.all(np.abs(draws.mean(axis=0)) < 0.01)


def test_ball_mean_norm_d2():
    # E||v|| = d/(d+1) = 2/3 for the uniform ball in d=2
    r = RngStream(12)
    n = 10**5
    m = np.mean([np.linalg.norm(sample_unit_ball(r, 2)) for _ in range(n)])
    assert abs(m - 2.0 / 3.0) < 0.01


def test_check_finite_rejects_nan():
    with pytest.raises(NumericsError):
        check_finite(np.array([1.0, np.nan]))
    with pytest.raises(NumericsError):
        check_finite(np.array([np.inf]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_check_finite_raises_at_every_position(bad, where):
    x = np.linspace(-1.0, 1.0, 7)
    x[where] = bad
    with pytest.raises(NumericsError, match="non-finite values in probe"):
        check_finite(x, "probe")
    with pytest.raises(NumericsError):
        check_finite(x.reshape(7, 1))
    with pytest.raises(NumericsError):
        check_finite(x.astype(np.float32))


def test_check_finite_passes_empty_and_converts_other_dtypes():
    empty = np.zeros(0)
    assert check_finite(empty) is empty
    assert check_finite(np.zeros((0, 3))).shape == (0, 3)
    x = np.array([1.0, -0.0, 2.5])
    assert check_finite(x) is x                  # float64: returned as it is
    for other in ([1, 2, 3], np.arange(3), np.arange(3, dtype=np.float32), 4):
        y = check_finite(other)
        assert type(y) is np.ndarray and y.dtype == np.float64
        assert np.array_equal(y, np.asarray(other, dtype=float))


@pytest.mark.parametrize("label", [0, 1, 2**64 - 1, -1])
def test_child_is_the_stream_keyed_by_mix64(label):
    for parent in (RngStream(5, 9), RngStream(-1, 2**64 + 3), RngStream(7).child(2)):
        child = parent.child(label)
        ref = RngStream(parent.seed, _mix64(parent.stream_id, label))
        assert (child.seed, child.stream_id) == (ref.seed, ref.stream_id)
        assert 0 <= child.stream_id < 2**64
        assert child.random(4).tobytes() == ref.random(4).tobytes()
        assert child.child(3).normal(size=3).tobytes() == ref.child(3).normal(size=3).tobytes()


def test_random_is_the_unit_uniform_draw():
    # the variation estimators draw a ~ U[0, 1] with random(): numpy's
    # uniform(0, 1) is 0 + 1 * next_double, the same double at the same
    # position of the stream
    for label in range(50):
        a, b = RngStream(11).child(label), RngStream(11).child(label)
        assert a.random().hex() == b.uniform().hex()
        assert a.random(3).tobytes() == b.random(3).tobytes()


# --- pooled streams against private generators ------------------------------

def _private(stream):
    """An unpooled generator with the stream's Philox key."""
    key = np.array([stream.seed, stream.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_DRAWS = [
    lambda r: r.random(3),
    lambda r: r.random(),
    lambda r: r.normal(size=4),
    lambda r: r.normal(1.5, 2.0),
    lambda r: r.integers(0, 3, size=5),      # small range: buffered uint32
    lambda r: r.integers(7),
    lambda r: r.integers(-2**40, 2**40, size=2),
    lambda r: r.uniform(-1.0, 2.0, size=2),
    lambda r: r.uniform(),
    lambda r: sample_unit_sphere(r, 5, 1),
    lambda r: sample_unit_ball(r, 3),
]


def test_pooled_streams_match_private_generators():
    # As in the variation estimators: it.child(0) and it.child(1) are both
    # live and draw in turn, beside a long-lived stream drawn every step.
    root = RngStream(2**64 - 3, 0xBEEF)
    long_lived = root.child(99)
    refs = {long_lived: _private(long_lived)}
    k = 0
    for t in range(1, 40):
        it = root.child(t)                # never draws
        a, b = it.child(0), it.child(1)
        refs[a], refs[b] = _private(a), _private(b)
        order = [a, b, a, long_lived, b, b, a] if t % 2 else [b, long_lived, a, b]
        for stream in order:
            draw = _DRAWS[k % len(_DRAWS)]
            k += 1
            assert np.array_equal(draw(stream), draw(refs[stream]))


def test_stream_repeats_after_eviction():
    r = RngStream(9, 4)
    first = r.integers(0, 3, size=3)      # leaves half a uint32 buffered
    taker = RngStream(9, 5)               # takes the pooled generator
    assert np.array_equal(taker.integers(0, 3, size=3),
                          _private(taker).integers(0, 3, size=3))
    rest = [r.integers(0, 3, size=3), r.normal(size=2)]
    ref = _private(r)
    assert np.array_equal(first, ref.integers(0, 3, size=3))
    assert np.array_equal(rest[0], ref.integers(0, 3, size=3))
    assert np.array_equal(rest[1], ref.normal(size=2))


# --- bulk Philox passes against private generators --------------------------

_BIG_IDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 7, 2**64 - 1]


def test_first_doubles_match_private_generators():
    # 1,006 ids, half of them >= 2^63, under seeds on both sides of 2^63, and
    # every draw count from 1 to 13: one to four Philox blocks, each cut at
    # every word of the last block
    ids = np.concatenate([
        np.random.default_rng(0).integers(0, 2**64, size=1000, dtype=np.uint64),
        np.array(_BIG_IDS, dtype=np.uint64)])
    assert np.count_nonzero(ids >= 2**63) > 400
    for n in range(1, 14):
        seed = (0, 2**63 + 5, 2**64 - 1, 12)[n % 4]
        got = first_doubles(seed, ids, n)
        assert got.shape == (ids.size, n)
        for i, stream_id in enumerate(ids.tolist()):
            ref = _private(RngStream(seed, stream_id)).random(n)
            assert got[i].tobytes() == ref.tobytes(), (seed, stream_id, n)


def test_mix64_on_arrays_matches_ints():
    a = np.random.default_rng(1).integers(0, 2**64, size=500, dtype=np.uint64)
    a = np.concatenate([a, np.array(_BIG_IDS, dtype=np.uint64)])
    b = np.arange(a.size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for label in (0, 1, 2**64 - 1):
        assert _mix64(a, label).tolist() == [_mix64(x, label) for x in a.tolist()]
    assert _mix64(a, b).tolist() == [_mix64(x, y) for x, y in zip(a.tolist(), b.tolist())]
    root = np.array([2**64 - 2], dtype=np.uint64)
    assert _mix64(root, np.arange(1, 9, dtype=np.uint64)).tolist() == [
        _mix64(2**64 - 2, t) for t in range(1, 9)]


def _served_children(seed, stream_id, n, count=3):
    """The children 0 and 1 of ``count`` streams from one bulk pass."""
    its = list(children_ahead(RngStream(seed, stream_id), count, {0: n, 1: n}))
    return [c for it in its for c in (it.child(0), it.child(1))]


def test_children_ahead_are_the_plain_children():
    root = RngStream(2**63 + 1, 2**64 - 5)
    its = list(children_ahead(root, AHEAD_BLOCK + 3, {0: 1, 1: 6, -1: 2}))
    assert len(its) == AHEAD_BLOCK + 3
    for t in (1, 2, AHEAD_BLOCK, AHEAD_BLOCK + 1, AHEAD_BLOCK + 3):
        it, ref = its[t - 1], root.child(t)
        assert (it.seed, it.stream_id) == (ref.seed, ref.stream_id)
        for j in (0, 1, -1, 2):           # 2 is not served: a plain child
            c, r = it.child(j), ref.child(j)
            assert type(c) is (RngStream if j == 2 else _ServedStream)
            assert (c.seed, c.stream_id) == (r.seed, r.stream_id)
            assert c.random(7).tobytes() == r.random(7).tobytes()
        # a second call serves the same doubles again, from a fresh stream
        assert it.child(1).random() == ref.child(1).random()


@pytest.mark.parametrize("n", [1, 4, 5, 10])
def test_draws_after_the_served_ones_continue_at_the_philox_position(n):
    # the served doubles are drawn in pieces, then every kind of draw goes
    # on from the generator, cut at each word of a Philox block
    for k, stream in enumerate(_served_children(2**64 - 1, 2**63 + 3, n)):
        ref = _private(stream)
        served = [stream.random() for _ in range(min(k % 3, n))]
        served.append(stream.random(min(n - len(served), k % 5)))
        assert np.array_equal(np.hstack(served), ref.random(np.hstack(served).size))
        for i in range(6):
            draw = _DRAWS[(k + i) % len(_DRAWS)]
            assert np.array_equal(draw(stream), draw(ref))


def test_served_streams_fall_back_on_draws_they_do_not_cover():
    n = 5
    streams = _served_children(3, 2**63, n, count=1)
    for first in (lambda r: r.random(n + 1), lambda r: r.random((1, 2)),
                  lambda r: r.random(np.int64(2)), lambda r: r.normal(size=2),
                  lambda r: r.integers(0, 3, size=3), lambda r: r.uniform(2.0, 3.0)):
        for stream in _served_children(3, 2**63, n, count=1):
            ref = _private(stream)
            assert np.array_equal(first(stream), first(ref))
            # once on a generator, random() no longer serves
            assert np.array_equal(stream.random(2), ref.random(2))
    # a served stream that falls back at the pool's turn keeps its place
    # when another stream takes the pooled generator
    a, b = streams
    ra, rb = _private(a), _private(b)
    assert a.normal() == ra.normal()
    assert b.random(3).tobytes() == rb.random(3).tobytes()
    assert RngStream(8).normal() == _private(RngStream(8)).normal()
    assert a.random(n).tobytes() == ra.random(n).tobytes()
    assert b.normal(size=3).tobytes() == rb.normal(size=3).tobytes()
    assert a.random() == ra.random() and b.random() == rb.random()
    # served arrays are the caller's own: writing one changes no later draw
    it = next(children_ahead(RngStream(3, 2**63), 1, {1: n}))
    it.child(1).random(2)[:] = -1.0
    assert it.child(1).random(2).tobytes() == _private(it.child(1)).random(2).tobytes()
