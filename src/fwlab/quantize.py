"""Randomized gradient quantization with exact bit accounting.

The s-partition scheme rounds each magnitude ratio |g_i| / ||g||_inf onto
the grid {0, 1/s, ..., 1} with an unbiased Bernoulli split between the two
neighbouring grid points, transmitting a sign, a level index, and the
shared infinity norm.  s = 1 is the sign scheme.  A message costs
32 + d*(z+1) bits with z = ceil(log2(s+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_finite

__all__ = [
    "QuantizedMessage",
    "encode_partition",
    "decode",
    "exact_variance",
    "variance_upper_bound",
    "encode_decode_batch",
    "UNQUANTIZED",
]

#: sentinel level count meaning "send the raw vector" (ledger charges 32*d bits)
UNQUANTIZED = 0


def _levels_z(s: int) -> int:
    return int(math.ceil(math.log2(s + 1)))


@dataclass(frozen=True)
class QuantizedMessage:
    signs: np.ndarray      # entries in {-1, 0, +1}
    levels: np.ndarray     # integers in [0, s]
    inf_norm: float
    s: int

    def __post_init__(self):
        d = self.signs.size
        if self.levels.size != d:
            raise ValueError("signs and levels length mismatch")
        if self.inf_norm < 0:
            raise ValueError("negative inf_norm")
        # count_nonzero, one C call each, where .any()/.min()/.max() each pass
        # through numpy's Python reduction wrapper
        levels = self.levels
        if self.inf_norm == 0 and np.count_nonzero(levels):
            raise ValueError("zero vector must have all-zero levels")
        if np.count_nonzero((levels < 0) | (levels > self.s)):
            raise ValueError("level outside [0, s]")

    @property
    def bits(self) -> int:
        """32 + d(z+1): the norm, then a sign and z level bits per coordinate."""
        return 32 + self.signs.size * (_levels_z(self.s) + 1)


def _partition_law(g: np.ndarray, s: int):
    """(||g||_inf, floor levels lo, round-up probabilities q) of the
    s-partition law: coordinate i is sent at level lo_i + 1 with
    probability q_i and at lo_i otherwise (all zero for a zero vector)."""
    a = np.abs(g)
    inf = float(a.max()) if g.size else 0.0
    if inf == 0.0:
        return inf, np.zeros(g.size, dtype=np.int64), np.zeros(g.size)
    a /= inf
    a *= s                                   # the ratio |g_i| / inf, times s
    lo = np.floor(a)
    np.minimum(lo, s - 1, out=lo)
    a -= lo
    return inf, lo.astype(np.int64), a


def encode_partition(g: np.ndarray, s: int, rng: RngStream) -> QuantizedMessage:
    """Encode g with the s-partition scheme (randomized, unbiased)."""
    if s < 1:
        raise ValueError("partition count s must be >= 1")
    g = check_finite(g, "quantizer input")
    inf, lo, q = _partition_law(g, s)
    levels = lo + (rng.random(g.size) < q) if inf else lo
    return QuantizedMessage(signs=np.sign(g).astype(np.int64), levels=levels,
                            inf_norm=inf, s=s)


def decode(msg: QuantizedMessage) -> np.ndarray:
    return msg.signs * (msg.levels / msg.s) * msg.inf_norm


def bernoulli_params(g: np.ndarray, s: int):
    """Per-coordinate Bernoulli split probability q_i used by the encoder."""
    inf, _, q = _partition_law(check_finite(g, "quantizer input"), s)
    return inf, q


def exact_variance(g: np.ndarray, s: int) -> float:
    """Closed-form Var[decode(encode(g))] summed over coordinates."""
    if s < 1:
        raise ValueError("partition count s must be >= 1")
    inf, q = bernoulli_params(g, s)
    return float(inf * inf * np.sum(q * (1.0 - q)) / (s * s))


def variance_upper_bound(g: np.ndarray, s: int) -> float:
    """(d/s^2) * ||g||_inf^2, the worst-case variance of the scheme."""
    g = np.asarray(g, dtype=float)
    inf = float(np.max(np.abs(g))) if g.size else 0.0
    return g.size / (s * s) * inf * inf


def encode_decode_batch(g: np.ndarray, s: int, n_rounds: int, rng: RngStream) -> np.ndarray:
    """Vectorized decode(encode(g)) repeated n_rounds times; rows are rounds."""
    g = check_finite(g, "quantizer input")
    inf, lo, q = _partition_law(g, s)
    if inf == 0.0:
        return np.zeros((n_rounds, g.size))
    levels = lo[None, :] + (rng.random((n_rounds, g.size)) < q[None, :])
    return np.sign(g)[None, :] * (levels / s) * inf
