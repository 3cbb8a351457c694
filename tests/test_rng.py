import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.rng import (
    NumericsError,
    RngStream,
    check_finite,
    sample_unit_ball,
    sample_unit_sphere,
)


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
    u = sample_unit_sphere(RngStream(seed), d)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


@given(seed=st.integers(0, 2**32), d=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_ball_inside(seed, d):
    v = sample_unit_ball(RngStream(seed), d)
    assert np.linalg.norm(v) <= 1.0 + 1e-12


def test_sphere_d1_is_sign():
    r = RngStream(0)
    vals = {float(sample_unit_sphere(r, 1)[0]) for _ in range(50)}
    assert vals <= {1.0, -1.0}


def test_invalid_dimension():
    with pytest.raises(ValueError):
        sample_unit_sphere(RngStream(0), 0)
    with pytest.raises(ValueError):
        sample_unit_ball(RngStream(0), 0)


def test_sphere_coordinate_mean_vanishes():
    r = RngStream(11)
    n = 10**5
    draws = np.array([sample_unit_sphere(r, 3) for _ in range(n)])
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
    lambda r: sample_unit_sphere(r, 5),
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
