"""Deterministic randomness and sphere sampling.

All stochastic components of this package draw from :class:`RngStream`, a
counter-based generator (Philox) keyed by an explicit ``(seed, stream_id)``
pair.  Identical keys reproduce identical draw sequences across runs and
platforms, and child streams can be split off deterministically so that
worker / solver / logging randomness never interleaves.

Stream contract.  A stream is single-owner and single-threaded: one piece
of code draws from it, in one thread.  Its draws are identical to those of
a private ``Generator(Philox(key=[seed, stream_id]))``, but no generator is
built per stream.  Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): key and counter fix the stream, so
one pooled generator, re-keyed through its ``state``, serves each stream on
its first draw.  A stream that loses the pooled generator to another while
it is still referenced saves its state; if it draws again it builds a
generator of its own from that state, once.  The pool is module state shared by every stream of the
process, so streams must not be drawn from in more than one thread.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "RngStream",
    "NumericsError",
    "sample_unit_sphere",
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


_ZEROS4 = (0, 0, 0, 0)


class _Pool:
    """The one Philox generator lent to the stream that draws; it is
    built on the first draw, not at import."""

    def __init__(self):
        self.bitgen = self.gen = None
        self.owner = lambda: None   # weak reference to the stream drawing

    def lend(self, stream: "RngStream") -> np.random.Generator:
        """Re-key the generator to ``stream``'s fresh state (counter 0,
        empty buffer), first saving the state of the stream it leaves,
        if that stream still exists."""
        if self.bitgen is None:
            self.bitgen = np.random.Philox(0)
            self.gen = np.random.Generator(self.bitgen)
        owner = self.owner()
        if owner is not None:
            owner._gen = None
            owner._state = self.bitgen.state
        self.bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4, "key": (stream.seed, stream.stream_id)},
            "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self.owner = weakref.ref(stream)
        return self.gen


_POOL = _Pool()


class RngStream:
    """A single-owner, single-threaded random stream with explicit splitting.

    Builds nothing until its first draw (see the module docstring for how
    generators are pooled).

    Parameters
    ----------
    seed:
        64-bit master seed shared by a whole experiment.
    stream_id:
        64-bit identifier of this particular stream.  Distinct ids give
        statistically independent streams (distinct Philox keys).
    """

    # __weakref__: the pool holds a weak reference to the stream drawing
    __slots__ = ("seed", "stream_id", "_gen", "_state", "__weakref__")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._gen = None     # the generator this stream draws from, if it holds one
        self._state = None   # Philox state saved when the pool was taken away

    def child(self, label: int) -> "RngStream":
        """Split off an independent stream identified by an integer label:
        ``RngStream(seed, _mix64(stream_id, label))``, built without
        ``__init__``'s normalisation, as ``_mix64`` returns 64 bits."""
        c = object.__new__(RngStream)
        c.seed = self.seed
        c.stream_id = _mix64(self.stream_id, int(label))
        c._gen = c._state = None
        return c

    def _generator(self) -> np.random.Generator:
        gen = self._gen
        if gen is None:
            if self._state is None:
                gen = _POOL.lend(self)
            else:  # evicted once: continue on a generator of its own
                bitgen = np.random.Philox(0)
                bitgen.state = self._state
                gen = np.random.Generator(bitgen)
                self._state = None
            self._gen = gen
        return gen

    # thin draw wrappers -------------------------------------------------
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator().uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._generator().normal(loc, scale, size=size)

    def integers(self, low, high=None, size=None):
        return self._generator().integers(low, high, size=size)

    def random(self, size=None):
        return self._generator().random(size=size)


def check_finite(x: np.ndarray, what: str = "vector") -> np.ndarray:
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    # one C call: ndarray.all() passes through numpy's Python wrapper
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NumericsError(f"non-finite values in {what}")
    return x


def sample_unit_sphere(rng: RngStream, d: int, size: int) -> np.ndarray:
    """``size`` uniform draws from the unit sphere S^{d-1} (Gaussian,
    normalized), as the rows of a ``(size, d)`` array.

    A Gaussian vector of norm <= 1e-12 is rejected and replaced by the next.
    The rows are drawn ``size`` at a time, rejected rows are dropped and
    their replacements drawn after the kept rows, so the rows and the stream
    position are those of ``size`` draws made one by one.  Norms are
    ``np.vecdot`` square roots, which round as ``np.linalg.norm`` does.
    """
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    G = rng.normal(size=(size, d))
    n = np.sqrt(np.vecdot(G, G))
    keep = n > 1e-12
    kept = np.count_nonzero(keep)
    if kept == size:
        return G / n[:, None]
    return np.concatenate([G[keep] / n[keep, None],
                           sample_unit_sphere(rng, d, size - kept)])
