import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.rng import (
    NumericsError,
    RngStream,
    _mix64,
    check_finite,
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
