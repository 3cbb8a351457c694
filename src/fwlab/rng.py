"""Deterministic randomness and sphere/ball sampling.

All stochastic components of this package draw from :class:`RngStream`, a
counter-based generator (Philox) keyed by an explicit ``(seed, stream_id)``
pair.  Identical keys reproduce identical draw sequences across runs and
platforms, and child streams can be split off deterministically so that
worker / solver / logging randomness never interleaves.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RngStream",
    "NumericsError",
    "sample_unit_sphere",
    "sample_unit_ball",
    "check_finite",
]


class NumericsError(RuntimeError):
    """Raised when a NaN/Inf appears where finite reals are required."""


def _mix64(a: int, b: int) -> int:
    # splitmix64-style mixing; derives child stream ids that do not collide
    # for any (stream_id, label) pairs used in practice.
    x = (a * 0x9E3779B97F4A7C15 + b + 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class RngStream:
    """A single-owner random stream with explicit splitting.

    Parameters
    ----------
    seed:
        64-bit master seed shared by a whole experiment.
    stream_id:
        64-bit identifier of this particular stream.  Distinct ids give
        statistically independent streams (distinct Philox keys).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def child(self, label: int) -> "RngStream":
        """Split off an independent stream identified by an integer label."""
        return RngStream(self.seed, _mix64(self.stream_id, int(label)))

    # thin draw wrappers -------------------------------------------------
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size=size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def random(self, size=None):
        return self._gen.random(size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def check_finite(x: np.ndarray, what: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {what}")
    return x


def sample_unit_sphere(rng: RngStream, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere S^{d-1} (Gaussian, normalized)."""
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    while True:
        g = rng.normal(size=d)
        n = np.linalg.norm(g)
        if n > 1e-12:
            return g / n


def sample_unit_ball(rng: RngStream, d: int) -> np.ndarray:
    """Uniform draw from the unit ball B^d (sphere sample scaled by U^{1/d})."""
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    u = sample_unit_sphere(rng, d)
    r = rng.uniform() ** (1.0 / d)
    return r * u
