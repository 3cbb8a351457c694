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
