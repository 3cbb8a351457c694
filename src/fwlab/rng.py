"""Deterministic randomness and sphere sampling.

All stochastic components of this package draw from :class:`RngStream`, a
counter-based generator (Philox) keyed by an explicit ``(seed, stream_id)``
pair.  Identical keys reproduce identical draw sequences across runs and
platforms, and child streams can be split off deterministically so that
worker / solver / logging randomness never interleaves.

Stream contract.  A stream is single-owner and single-threaded: one piece
of code draws from it, in one thread.  Its draws are identical to those of
a private ``Generator(Philox(key=np.array([seed, stream_id],
dtype=np.uint64)))``; the key must be a uint64 array, as numpy converts a
list holding an int >= 2**63 through float64.  No generator is built per
stream.  Philox is counter-based (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011): key and counter fix the stream, so one
pooled generator, re-keyed through its ``state``, serves each stream on its
first draw.  A stream that loses the pooled generator to another while it
is still referenced saves its state; if it draws again it builds a
generator of its own from that state, once.  The pool is module state
shared by every stream of the process, so streams must not be drawn from in
more than one thread.

Bulk passes.  A fresh stream's first Philox blocks are a pure function of its
key, so :func:`first_doubles` computes the first ``random()`` doubles of
many streams at once, in numpy uint64 arithmetic, and
:func:`children_ahead` hands them to the children of a run of iteration
streams, which serve them as their first draws and continue past them at
the exact Philox position.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "RngStream",
    "NumericsError",
    "sample_unit_sphere",
    "check_finite",
    "children_ahead",
    "first_doubles",
]


class NumericsError(RuntimeError):
    """Raised when a NaN/Inf appears where finite reals are required."""


def _mix64(a, b):
    """splitmix64-style mixing; derives child stream ids that do not collide
    for any (stream_id, label) pairs used in practice.  ``a`` and ``b`` are
    ints, or ``a`` is a uint64 array (and ``b`` an int or a uint64 array),
    whose products wrap mod 2^64 where an int's are masked."""
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


#: Iterations per bulk pass of :func:`children_ahead`.  Measured on a
#: 2,000-iteration facility solve (d = 10, one AVX-512 Xeon core): the
#: traced allocation peaks at ~0.5 MB with 512 (~1.0 MB with 1,024, which
#: raised the benchmark's peak RSS by ~0.4 MB), and the passes cost ~1.4 µs
#: per iteration (1.1 µs with 1,024, 2.0 µs with 256).
AHEAD_BLOCK = 512

# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers of lanes 0
# and 2, their low and high 32 bits, and the Weyl increments of the two key
# words, as (2, 1) columns
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_COLUMNS = (_PHILOX_MUL, _PHILOX_MUL & 0xFFFFFFFF, _PHILOX_MUL >> 32,
                   np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64))


def _philox4x64(seed: int, ids: np.ndarray, counters: np.ndarray):
    """The output block of Philox4x64-10 at counter ``(c, 0, 0, 0)`` under
    key ``(seed, id)``, for equal-length uint64 arrays of ids and c: the four
    words, each an array.  Lanes 0 and 2 (and 1 and 3) are one (2, n) array,
    so a round is one pass of numpy calls; the high half of each 64 x 64-bit
    product is built from 32-bit halves (Hacker's Delight's mulhu).  The
    constants are spread to (2, n) first: numpy multiplies equal shapes
    about twice as fast as a broadcast column."""
    mul, mul_lo, mul_hi, bump = (np.repeat(c, ids.size, axis=1) for c in _PHILOX_COLUMNS)
    key = np.empty_like(mul)
    key[0], key[1] = seed, ids
    a = np.zeros_like(key)         # lanes 0 and 2, the multiplied ones
    a[0] = counters
    b = np.zeros_like(key)         # lanes 1 and 3
    for r in range(10):
        if r:
            key += bump
        a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
        t = a_hi * mul_lo + ((a_lo * mul_lo) >> 32)
        w = (t & 0xFFFFFFFF) + a_lo * mul_hi
        mulhi = a_hi * mul_hi + (t >> 32) + (w >> 32)
        a, b = mulhi[::-1] ^ b ^ key, (a * mul)[::-1]
    return a[0], b[0], a[1], b[1]


def first_doubles(seed: int, ids, n: int) -> np.ndarray:
    """The first ``n`` ``random()`` doubles of each fresh stream
    ``RngStream(seed, i)``, ``i`` in ``ids``, as the rows of a
    ``(len(ids), n)`` array, from one vectorized Philox pass.

    A fresh stream's draw k = 0, 1, ... is word k mod 4 of the Philox block
    at counter k // 4 + 1, and ``random()`` maps a word u to ``(u >> 11) * 2**-53``, so
    row i holds the bits that ``RngStream(seed, i).random(n)`` returns."""
    ids = np.asarray(ids, dtype=np.uint64)
    blocks = -(-n // 4)
    words = _philox4x64(seed, np.repeat(ids, blocks),
                        np.tile(np.arange(1, blocks + 1, dtype=np.uint64), ids.size))
    u = np.stack(words, axis=-1).reshape(ids.size, 4 * blocks)[:, :n]
    return (u >> 11) * 2.0**-53


class _ServedStream(RngStream):
    """A fresh stream whose first ``random()`` doubles were computed ahead
    (:func:`first_doubles`).  It hands them out while they cover a draw of
    ``random()`` or ``random(k)``; any other draw, and every draw after it,
    comes from a generator at the exact Philox position."""

    __slots__ = ("_ahead", "_served")

    def random(self, size=None):
        ahead, n = self._ahead, self._served
        if self._gen is None and self._state is None:
            if size is None:
                if n < len(ahead):
                    self._served = n + 1
                    return float(ahead[n])
            elif type(size) is int and 0 <= size <= len(ahead) - n:
                self._served = n + size
                return ahead[n:n + size].copy()
        return self._generator().random(size=size)

    def _generator(self) -> np.random.Generator:
        n = self._served
        if n and self._gen is None and self._state is None:
            # on past the n doubles served: four to a block, from counter 0
            bitgen = np.random.Philox(
                key=np.array([self.seed, self.stream_id], dtype=np.uint64),
                counter=n >> 2)
            bitgen.random_raw(n & 3)
            self._gen = np.random.Generator(bitgen)
        return RngStream._generator(self)


class _ServingStream(RngStream):
    """A stream some of whose children are served streams
    (:class:`_ServedStream`), from the passes of :func:`children_ahead`."""

    # label -> (the child ids, the first doubles) of a pass; this stream's row
    __slots__ = ("_kids", "_row")

    def child(self, label: int) -> RngStream:
        kid = self._kids.get(label)
        if kid is None:
            return RngStream.child(self, label)
        ids, doubles = kid
        c = object.__new__(_ServedStream)
        c.seed, c.stream_id, c._ahead = self.seed, ids[self._row], doubles[self._row]
        c._gen = c._state = None
        c._served = 0
        return c


def children_ahead(stream: RngStream, count: int, draws: dict):
    """Yield ``stream.child(t)`` for t = 1..count.  Each one's child j, for
    j in ``draws``, hands out its first ``draws[j]`` ``random()`` doubles,
    computed by one :func:`first_doubles` pass per label for each
    :data:`AHEAD_BLOCK` values of t; the stream ids come from :func:`_mix64`
    on uint64 arrays.  Every stream draws what a plain ``child`` call would
    give it."""
    seed, root = stream.seed, np.array([stream.stream_id], dtype=np.uint64)
    for first in range(1, count + 1, AHEAD_BLOCK):
        ids = _mix64(root, np.arange(first, min(first + AHEAD_BLOCK, count + 1),
                                     dtype=np.uint64))
        kids = {}
        for j, n in draws.items():
            kid_ids = _mix64(ids, j & 0xFFFFFFFFFFFFFFFF)   # an int label mod 2^64
            kids[j] = kid_ids.tolist(), first_doubles(seed, kid_ids, n)
        for row, stream_id in enumerate(ids.tolist()):
            it = object.__new__(_ServingStream)
            it.seed, it.stream_id = seed, stream_id
            it._gen = it._state = None
            it._kids, it._row = kids, row
            yield it


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
