import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab.quantize import QuantizedMessage, _partition_law, decode, encode_partition
from fwlab.rng import RngStream
from reference import encode_decode_batch, exact_variance, variance_upper_bound

small_vec = st.integers(1, 8).flatmap(
    lambda d: st.lists(st.floats(-5, 5, allow_nan=False), min_size=d, max_size=d)
)


def _exact_expectation(g, s):
    """Enumerate both Bernoulli branches per coordinate."""
    g = np.asarray(g, dtype=float)
    inf = np.max(np.abs(g)) if g.size else 0.0
    if inf == 0:
        return np.zeros_like(g)
    _, _, q = _partition_law(g, s)
    lo = np.minimum(np.floor(np.abs(g) / inf * s), s - 1)
    e_level = lo + q
    return np.sign(g) * (e_level / s) * inf


def test_grid_points_lossless():
    g = np.array([0.8, -0.4])
    msg = encode_partition(g[None], 4, [RngStream(0)])
    assert np.allclose(decode(msg)[0], g)
    assert np.array_equal(msg.levels[0], [4, 2])


def test_zero_vector():
    msg = encode_partition(np.zeros((1, 5)), 3, [RngStream(0)])
    assert msg.inf_norm[0] == 0.0
    assert np.array_equal(decode(msg), np.zeros((1, 5)))


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


@pytest.mark.parametrize("s", [1, 2, 7, 9, 40, 2**16])
def test_encode_equals_reference_encoder(s):
    gen = RngStream(21)
    cases = [np.zeros(6), np.zeros(0), np.array([-0.0, 0.0, -0.0]),
             np.array([3.0]), np.array([0.8, -0.4, 0.0]), gen.normal(size=6),
             gen.normal(size=50) * 1e-300, gen.uniform(-1.0, 1.0, size=200)]
    for j, g in enumerate(cases):
        rng, ref_rng = RngStream(5, j), RngStream(5, j)
        sent = g.copy()
        msg = encode_partition(g[None], s, [rng])
        assert g.tobytes() == sent.tobytes()  # the law works on its own copies
        signs, levels, inf = _encode_reference(g, s, ref_rng)
        assert msg.signs[0].tobytes() == signs.tobytes()
        assert msg.levels[0].tobytes() == levels.tobytes()
        assert msg.inf_norm[0] == inf
        ref = signs * (levels / s) * inf
        assert decode(msg)[0].tobytes() == ref.tobytes(), j
        # both used the same draws, so the streams continue alike
        after = rng.random()
        assert after == ref_rng.random()
        if inf == 0.0:  # a zero vector draws nothing
            assert after == RngStream(5, j).random()


@pytest.mark.parametrize("s", [1, 2, 7, 9, 40, 2**16])
def test_stacked_encode_equals_per_row_encodes(s):
    # Row r of one stacked call is, bit for bit, the message that an encode
    # of row r alone (a stack of one) with stream r sends, and each stream
    # moves as it would alone: a zero row (its own or in an all-zero stack)
    # draws nothing.
    gen = RngStream(22)
    stacks = {
        "mixed": np.stack([gen.normal(size=5), np.zeros(5),
                           np.array([-0.0, 0.5, -0.0, -2.0, 0.0]),
                           gen.normal(size=5) * 1e-300, np.full(5, -0.0),
                           gen.uniform(-1.0, 1.0, size=5)]),
        "all-zero": np.zeros((3, 4)),
        "no-coordinates": np.zeros((3, 0)),   # 32 bits each, no reduction error
        "one-row": gen.normal(size=(1, 7)),
    }
    for j, (name, G) in enumerate(stacks.items()):
        rngs = [RngStream(6, 100 * j + r) for r in range(len(G))]
        twins = [RngStream(6, 100 * j + r) for r in range(len(G))]
        sent = G.copy()
        msg = encode_partition(G, s, rngs)
        assert G.tobytes() == sent.tobytes()
        assert msg.signs.shape == msg.levels.shape == G.shape
        assert msg.inf_norm.shape == (len(G),)
        dec = decode(msg)
        assert dec.shape == G.shape
        for r, g in enumerate(G):
            alone = encode_partition(g[None], s, [twins[r]])
            assert msg.signs[r].tobytes() == alone.signs[0].tobytes(), (name, r)
            assert msg.levels[r].tobytes() == alone.levels[0].tobytes(), (name, r)
            assert msg.inf_norm[r] == alone.inf_norm[0], (name, r)
            assert dec[r].tobytes() == decode(alone)[0].tobytes(), (name, r)
            after = rngs[r].random()
            assert after == twins[r].random(), (name, r)
            if not g.any():
                assert after == RngStream(6, 100 * j + r).random(), (name, r)
        assert msg.bits_per_row == alone.bits_per_row == 32 + G.shape[1] * (
            math.ceil(math.log2(s + 1)) + 1)


def test_stack_needs_one_stream_per_row():
    with pytest.raises(ValueError, match="k streams"):
        encode_partition(np.ones((3, 2)), 2, [RngStream(0)] * 2)
    with pytest.raises(ValueError, match="k streams"):
        encode_partition(np.ones((2, 2, 2)), 2, [RngStream(0)] * 2)
    # one message is a stack of one row; a bare (d,) vector is refused
    with pytest.raises(ValueError, match="k streams"):
        encode_partition(np.array([1.0, 0.3]), 2, [RngStream(7)])


def test_bernoulli_frequency():
    # 10^5 copies of g on one stream draw what 10^5 single sends draw
    g = np.array([1.0, 0.3])
    rng = RngStream(7)
    msg = encode_partition(np.tile(g, (10**5, 1)), 2, [rng] * 10**5)
    hits = np.count_nonzero(msg.levels[:, 1] == 1)
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
    msg = encode_partition(g[None], s, [RngStream(3)])
    dec = decode(msg)
    assert np.all(np.abs(dec) <= msg.inf_norm[0] + 1e-12)
    z = math.ceil(math.log2(s + 1))
    assert msg.bits_per_row == 32 + g.size * (z + 1)


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
    r2 = rng.child(2)   # n copies of g on one stream: n single sends
    loop = decode(encode_partition(np.tile(g, (n, 1)), 2, [r2] * n)).mean(axis=0)
    se = 3 * np.sqrt(variance_upper_bound(g, 2) / n)
    assert np.all(np.abs(batch_mean - g) < se)
    assert np.all(np.abs(loop - g) < se)
    # exact: on two streams of one key, the reference sampler gives the
    # encoder's rows byte for byte, so test_07 measures the encoder's law
    for s, h in itertools.product((1, 2, 4, 8), (g, np.zeros(6))):
        fast = encode_decode_batch(h, s, n, RngStream(12, s))
        shared = RngStream(12, s)
        sent = decode(encode_partition(np.tile(h, (n, 1)), s, [shared] * n))
        assert fast.tobytes() == sent.tobytes()


def test_message_bits_examples():
    assert encode_partition(np.ones((1, 100)), 1, [RngStream(0)]).bits_per_row == 232
    assert encode_partition(np.ones((1, 10)), 3, [RngStream(0)]).bits_per_row == 62
    assert encode_partition(np.zeros((1, 0)), 5, [RngStream(0)]).bits_per_row == 32


def test_invalid_s():
    with pytest.raises(ValueError):
        encode_partition(np.ones((1, 3)), 0, [RngStream(0)])


def test_message_invariant_validation():
    with pytest.raises(ValueError):
        QuantizedMessage(signs=np.array([[1]]), levels=np.array([[2]]),
                         inf_norm=np.array([0.0]), s=2)


_GOOD_MESSAGE = dict(signs=np.array([[1, -1]]), levels=np.array([[2, 1]]),
                     inf_norm=np.array([1.5]), s=2)


@pytest.mark.parametrize("broken, match", [
    (dict(levels=np.array([[2]])), "length mismatch"),
    (dict(inf_norm=np.array([-1.5])), "negative inf_norm"),
    (dict(levels=np.array([[-1, 1]])), "outside"),
    (dict(levels=np.array([[2, 3]])), "outside"),
], ids=["length", "negative-norm", "level-below-0", "level-above-s"])
def test_message_rejects_each_broken_invariant(broken, match):
    # the zero-vector invariant is test_message_invariant_validation's case
    QuantizedMessage(**_GOOD_MESSAGE)
    with pytest.raises(ValueError, match=match):
        QuantizedMessage(**{**_GOOD_MESSAGE, **broken})


_GOOD_STACK = dict(signs=np.array([[1, -1], [0, 1], [-1, -1]]),
                   levels=np.array([[2, 1], [0, 2], [1, 2]]),
                   inf_norm=np.array([1.5, 0.5, 2.0]), s=2)


def _break_row(field, row, value):
    arr = _GOOD_STACK[field].copy()
    arr[row] = value
    return {field: arr}


@pytest.mark.parametrize("broken, match", [
    (dict(levels=_GOOD_STACK["levels"][:2]), "length mismatch"),
    (dict(inf_norm=_GOOD_STACK["inf_norm"][:2]), "one inf_norm per row"),
    (_break_row("inf_norm", 1, -0.5), "negative inf_norm"),
    (_break_row("inf_norm", 2, 0.0), "all-zero levels"),
    (_break_row("levels", 0, [-1, 1]), "outside"),
    (_break_row("levels", 2, [2, 3]), "outside"),
], ids=["length", "norm-count", "negative-norm", "zero-norm-levels",
        "level-below-0", "level-above-s"])
def test_stack_rejects_one_broken_row(broken, match):
    # each invariant of a single message, broken in one row of three
    QuantizedMessage(**_GOOD_STACK)
    with pytest.raises(ValueError, match=match):
        QuantizedMessage(**{**_GOOD_STACK, **broken})

