"""Randomized gradient quantization with exact bit accounting.

The s-partition scheme rounds each magnitude ratio |g_i| / ||g||_inf onto
the grid {0, 1/s, ..., 1} with an unbiased Bernoulli split between the two
neighbouring grid points, transmitting a sign, a level index, and the
shared infinity norm.  s = 1 is the sign scheme.  A message costs
32 + d*(z+1) bits with z = ceil(log2(s+1)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_finite

__all__ = [
    "QuantizedMessage",
    "encode_partition",
    "decode",
    "UNQUANTIZED",
]

#: sentinel level count meaning "send the raw vector" (ledger charges 32*d bits)
UNQUANTIZED = 0


def _levels_z(s: int) -> int:
    return int(math.ceil(math.log2(s + 1)))


@dataclass(frozen=True)
class QuantizedMessage:
    """A stack of k messages as rows: ``signs`` and ``levels`` are (k, d)
    with a (k,) array of norms.  Every invariant holds on every row."""

    signs: np.ndarray      # entries in {-1, 0, +1}
    levels: np.ndarray     # integers in [0, s]
    inf_norm: np.ndarray
    s: int

    def __post_init__(self):
        levels, inf = self.levels, self.inf_norm
        if levels.shape != self.signs.shape:
            raise ValueError("signs and levels length mismatch")
        if levels.ndim != 2 or np.shape(inf) != levels.shape[:1]:
            raise ValueError("need (k, d) rows and one inf_norm per row")
        # count_nonzero, one C call each, where .any()/.min()/.max() each pass
        # through numpy's Python reduction wrapper
        nonpositive = inf <= 0       # rare: a zero row or a broken message
        if np.count_nonzero(nonpositive):
            if np.count_nonzero(inf < 0):
                raise ValueError("negative inf_norm")
            if np.count_nonzero(levels[nonpositive]):
                raise ValueError("zero vector must have all-zero levels")
        if np.count_nonzero((levels < 0) | (levels > self.s)):
            raise ValueError("level outside [0, s]")

    @property
    def bits_per_row(self) -> int:
        """32 + d(z+1), the cost of one row sent as its own message: the
        norm, then a sign and z level bits per coordinate.  A stack of k
        rows costs k times this."""
        return 32 + self.signs.shape[-1] * (_levels_z(self.s) + 1)


def _partition_law(g: np.ndarray, s: int):
    """(||g||_inf, floor levels lo, round-up probabilities q) of the
    s-partition law, row by row along the last axis: coordinate i is sent at
    level lo_i + 1 with probability q_i and at lo_i otherwise (all zero for a
    zero row)."""
    a = np.abs(g)
    inf = np.maximum.reduce(a, axis=-1, initial=0.0)
    col = inf[..., None]
    np.divide(a, col, out=a, where=col > 0)  # a zero row stays zero
    a *= s                                   # the ratio |g_i| / inf, times s
    lo = np.floor(a)
    np.minimum(lo, s - 1, out=lo)
    a -= lo
    return inf, lo.astype(np.int64), a


def encode_partition(g: np.ndarray, s: int,
                     rng: Sequence[RngStream]) -> QuantizedMessage:
    """Encode the rows of a (k, d) stack ``g`` with the s-partition scheme
    (randomized, unbiased), row r on stream ``rng[r]``.

    Row r draws ``rng[r].random(d)`` only when its norm is nonzero, so each
    stream moves exactly as it would for that row sent alone.
    """
    if s < 1:
        raise ValueError("partition count s must be >= 1")
    g = check_finite(g, "quantizer input")
    if g.ndim != 2 or len(rng) != len(g):
        raise ValueError("need a (k, d) stack with k streams")
    inf, lo, q = _partition_law(g, s)
    u = np.zeros(g.shape)             # q = 0 on a zero row, which draws nothing
    for r in inf.nonzero()[0]:
        u[r] = rng[r].random(g.shape[1])
    return QuantizedMessage(signs=np.sign(g).astype(np.int64), levels=lo + (u < q),
                            inf_norm=inf, s=s)


def decode(msg: QuantizedMessage) -> np.ndarray:
    """The stack of rows that the receiver reconstructs."""
    return msg.signs * (msg.levels / msg.s) * msg.inf_norm[:, None]
