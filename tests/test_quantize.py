import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.quantize import (
    QuantizedMessage,
    bernoulli_params,
    decode,
    encode_decode_batch,
    encode_partition,
    exact_variance,
    variance_upper_bound,
)
from fwlab.rng import RngStream

small_vec = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.floats(-5, 5, allow_nan=False), min_size=d, max_size=d)
)


def _exact_expectation(g, s):
    """Enumerate both Bernoulli branches per coordinate."""
    g = np.asarray(g, dtype=float)
    inf = np.max(np.abs(g)) if g.size else 0.0
    if inf == 0:
        return np.zeros_like(g)
    _, q = bernoulli_params(g, s)
    lo = np.minimum(np.floor(np.abs(g) / inf * s), s - 1)
    e_level = lo + q
    return np.sign(g) * (e_level / s) * inf


def test_grid_points_lossless():
    g = np.array([0.8, -0.4])
    msg = encode_partition(g, 4, RngStream(0))
    assert np.allclose(decode(msg), g)
    assert np.array_equal(msg.levels, [4, 2])


def test_zero_vector():
    msg = encode_partition(np.zeros(5), 3, RngStream(0))
    assert msg.inf_norm == 0.0
    assert np.array_equal(decode(msg), np.zeros(5))


def _encode_reference(g, s, rng):
    """The encoder before it shared its |g| and ratio passes: returns the
    signs, levels and norm it sent."""
    g = np.asarray(g, dtype=float)
    inf = float(np.max(np.abs(g))) if g.size else 0.0
    if inf == 0.0:
        return np.sign(g).astype(np.int64), np.zeros(g.size, dtype=np.int64), inf
    r = np.abs(g) / inf
    lo = np.minimum(np.floor(r * s), s - 1).astype(np.int64)
    q = r * s - lo
    levels = lo + (rng.random(g.size) < q).astype(np.int64)
    return np.sign(g).astype(np.int64), levels, inf


@pytest.mark.parametrize("s", [1, 2, 7, 2**16])
def test_encode_equals_reference_encoder(s):
    gen = RngStream(21)
    cases = [np.zeros(6), np.zeros(0), np.array([-0.0, 0.0, -0.0]),
             np.array([3.0]), np.array([0.8, -0.4, 0.0]), gen.normal(size=6),
             gen.normal(size=50) * 1e-300, gen.uniform(-1.0, 1.0, size=200)]
    for j, g in enumerate(cases):
        rng, ref_rng = RngStream(5, j), RngStream(5, j)
        msg = encode_partition(g, s, rng)
        signs, levels, inf = _encode_reference(g, s, ref_rng)
        assert msg.signs.tobytes() == signs.tobytes()
        assert msg.levels.tobytes() == levels.tobytes()
        assert msg.inf_norm == inf
        ref = signs * (levels / s) * inf
        assert decode(msg).tobytes() == ref.tobytes(), j
        # both used the same draws, so the streams continue alike
        after = rng.random()
        assert after == ref_rng.random()
        if inf == 0.0:  # a zero vector draws nothing
            assert after == RngStream(5, j).random()


def test_bernoulli_frequency():
    g = np.array([1.0, 0.3])
    rng = RngStream(7)
    hits = sum(encode_partition(g, 2, rng).levels[1] == 1 for _ in range(10**5))
    assert abs(hits / 10**5 - 0.6) < 0.005


@given(g=small_vec, s=st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_unbiasedness_exact_enumeration(g, s):
    g = np.array(g)
    assert np.allclose(_exact_expectation(g, s), g, atol=1e-12)


@given(g=small_vec, s=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100, deadline=None)
def test_decode_within_norm_and_bits(g, s):
    g = np.array(g)
    msg = encode_partition(g, s, RngStream(3))
    dec = decode(msg)
    assert np.all(np.abs(dec) <= msg.inf_norm + 1e-12)
    z = math.ceil(math.log2(s + 1))
    assert msg.bits == 32 + g.size * (z + 1)


def test_lemma6_hand_values():
    assert exact_variance(np.array([1.0, 1.0]), 1) == pytest.approx(0.0, abs=1e-12)
    assert exact_variance(np.array([1.0, 0.5]), 1) == pytest.approx(0.25, abs=1e-12)
    assert exact_variance(np.array([1.0, 0.5]), 2) == pytest.approx(0.0, abs=1e-12)


def test_lemma6_closed_form_equality():
    rng = RngStream(9)
    for _ in range(1000):
        g = rng.normal(size=int(rng.integers(1, 12)))
        l1 = np.sum(np.abs(g))
        linf = np.max(np.abs(g))
        assert exact_variance(g, 1) == pytest.approx(
            l1 * linf - np.sum(g**2), abs=1e-12 * max(1.0, l1 * linf))


def test_variance_bound_dominates():
    rng = RngStream(10)
    for s in (1, 2, 4, 8):
        for _ in range(50):
            g = rng.normal(size=20)
            assert exact_variance(g, s) <= variance_upper_bound(g, s) + 1e-12


def test_empirical_variance_matches_exact():
    rng = RngStream(11)
    g = rng.normal(size=10)
    dec = encode_decode_batch(g, 2, 10**5, rng.child(1))
    emp = np.mean(np.sum((dec - g) ** 2, axis=1))
    assert emp == pytest.approx(exact_variance(g, 2), rel=0.05)


def test_batch_matches_scalar_path_statistically():
    # same law: compare means of the two code paths
    rng = RngStream(12)
    g = rng.normal(size=6)
    n = 20000
    batch_mean = encode_decode_batch(g, 2, n, rng.child(1)).mean(axis=0)
    loop = np.zeros(6)
    r2 = rng.child(2)
    for _ in range(n):
        loop += decode(encode_partition(g, 2, r2))
    loop /= n
    se = 3 * np.sqrt(variance_upper_bound(g, 2) / n)
    assert np.all(np.abs(batch_mean - g) < se)
    assert np.all(np.abs(loop - g) < se)


def test_message_bits_examples():
    assert encode_partition(np.ones(100), 1, RngStream(0)).bits == 232
    assert encode_partition(np.ones(10), 3, RngStream(0)).bits == 62
    assert encode_partition(np.zeros(0), 5, RngStream(0)).bits == 32


def test_invalid_s():
    with pytest.raises(ValueError):
        encode_partition(np.ones(3), 0, RngStream(0))


def test_message_invariant_validation():
    with pytest.raises(ValueError):
        QuantizedMessage(signs=np.array([1]), levels=np.array([2]),
                         inf_norm=0.0, s=2)


_GOOD_MESSAGE = dict(signs=np.array([1, -1]), levels=np.array([2, 1]),
                     inf_norm=1.5, s=2)


@pytest.mark.parametrize("broken, match", [
    (dict(levels=np.array([2])), "length mismatch"),
    (dict(inf_norm=-1.5), "negative inf_norm"),
    (dict(levels=np.array([-1, 1])), "outside"),
    (dict(levels=np.array([2, 3])), "outside"),
], ids=["length", "negative-norm", "level-below-0", "level-above-s"])
def test_message_rejects_each_broken_invariant(broken, match):
    # the zero-vector invariant is test_message_invariant_validation's case
    QuantizedMessage(**_GOOD_MESSAGE)
    with pytest.raises(ValueError, match=match):
        QuantizedMessage(**{**_GOOD_MESSAGE, **broken})
