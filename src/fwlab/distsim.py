"""Deterministic in-process master-worker simulator for quantized
Frank-Wolfe.

Rounds are grouped into periods.  The first round of a period is an anchor
where every worker computes a (near-)exact local gradient; later rounds
send only the recursive gradient difference evaluated on a local
mini-batch.  Every exchanged vector goes through the two-stage quantizer
(worker up-link, master down-link after averaging) and is charged to an
exact bit ledger.  All workers execute the Frank-Wolfe step locally, so
replicas stay bit-identical; the simulator asserts this each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import FeasibleSet
from .problems import FiniteSumProblem, StochasticProblem, ordered_means
from .quantize import UNQUANTIZED, decode, encode_partition
from .rng import RngStream
from .solvers import IterationRecord, SolveTrace, fw_gap

__all__ = [
    "QfwConfig",
    "BitLedger",
    "run_qfw",
    "run_snc_qfw",
    "schedule_from_theorem",
    "RAW_BITS_PER_COORD",
    "SETTINGS",
    "MODES",
]

RAW_BITS_PER_COORD = 32
LEVEL_CAP = 2**16
_WORKER_STREAM = 0x700
_MASTER_STREAM = 0x600
_OUTPUT_STREAM = 0xA11

SETTINGS = ("finite_convex", "stoch_convex", "finite_nonconvex",
            "stoch_nonconvex")
MODES = ("quantized", "unquantized", "fl")


@dataclass
class BitLedger:
    entries: list = field(default_factory=list)  # (round, direction, bits)
    cum_up: int = 0
    cum_down: int = 0

    def charge(self, round_, direction: str, bits: int):
        self.entries.append((round_, direction, int(bits)))
        if direction == "up":
            self.cum_up += int(bits)
        else:
            self.cum_down += int(bits)

    @property
    def total(self) -> int:
        return self.cum_up + self.cum_down


@dataclass
class QfwConfig:
    """Simulator schedule bundle.

    ``setting`` is one of finite_convex, stoch_convex, finite_nonconvex,
    stoch_nonconvex; ``mode`` is quantized, unquantized, or fl (local-update
    heuristic with end-of-round model averaging, no guarantee).  The
    callables take the period index i (1-based) and inner index k.
    """

    M: int
    setting: str
    period_fn: object          # i -> p_i
    anchor_batch_fn: object    # i -> batch size at k=1 (None = all local)
    inner_batch_fn: object     # (i, k) -> mini-batch size for k >= 2
    eta_fn: object             # (i, k, t) -> step size
    s1_fn: object              # (i, k) -> up-link levels (UNQUANTIZED = raw)
    s2_fn: object              # (i, k) -> down-link levels
    mode: str = "quantized"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need at least one worker")
        if self.setting not in SETTINGS:
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def _cap_levels(s: float) -> int:
    return max(1, min(int(math.ceil(s)), LEVEL_CAP))


def schedule_from_theorem(setting: str, n_total: int, M: int, d: int,
                          constants: dict | None = None, T: int | None = None,
                          mode: str = "quantized") -> QfwConfig:
    """Theorem-prescribed periods, batches, steps, and quantization levels.

    Fractional quantities are rounded up and floored at 1; levels are
    additionally capped at 2^16.  With ``mode="unquantized"`` both links
    send raw vectors (levels ``UNQUANTIZED``) on the same schedule.
    """
    if n_total % M != 0:
        raise ValueError(f"component count {n_total} not divisible by M={M}")

    if setting in ("finite_convex", "stoch_convex"):
        # the two convex settings differ only in the anchor batch
        anchor = lambda i: None  # all local components
        if setting == "stoch_convex":
            if constants is None or not {"sigma", "L", "D"} <= constants.keys():
                raise ValueError("stoch_convex needs constants sigma, L, D")
            sg, L, D = constants["sigma"], constants["L"], constants["D"]
            anchor = lambda i: max(
                1, math.ceil(sg**2 * (2 ** (i - 1)) ** 2 / (M * L**2 * D**2)))
        period = lambda i: 2 ** (i - 1)
        inner = lambda i, k: max(1, math.ceil(2 ** (i - 1) / M))
        eta = lambda i, k, t: 2.0 / (2 ** (i - 1) + k)
        s1 = lambda i, k: _cap_levels(
            math.sqrt(d * (2 ** (i - 1)) ** 2 / M) if k == 1
            else math.sqrt(d * 2 ** (i - 1) / M))
        s2 = lambda i, k: _cap_levels(
            math.sqrt(d * (2 ** (i - 1)) ** 2) if k == 1
            else math.sqrt(d * 2 ** (i - 1)))
    elif setting in ("finite_nonconvex", "stoch_nonconvex"):
        if T is None:
            raise ValueError("nonconvex schedules need the horizon T")
        p = max(1, math.ceil(math.sqrt(n_total)))
        period = lambda i: p
        anchor = lambda i: None
        inner = lambda i, k: max(1, math.ceil(math.sqrt(n_total) / M))
        eta = lambda i, k, t: T ** (-0.5)
        s1 = lambda i, k: _cap_levels(
            math.sqrt(T * d / M) if k == 1
            else math.sqrt(d) * n_total**0.25 / math.sqrt(M))
        s2 = lambda i, k: _cap_levels(
            math.sqrt(T * d) if k == 1 else math.sqrt(d) * n_total**0.25)
    else:
        raise ValueError(f"unknown setting {setting!r}")
    if mode == "unquantized":
        s1 = s2 = lambda i, k: UNQUANTIZED

    return QfwConfig(M=M, setting=setting, period_fn=period,
                     anchor_batch_fn=anchor, inner_batch_fn=inner,
                     eta_fn=eta, s1_fn=s1, s2_fn=s2, mode=mode)


def _send(vec: np.ndarray, s: int, rng: RngStream, ledger: BitLedger,
          round_: int, direction: str):
    """Quantize-and-transmit one vector; returns what the receiver decodes."""
    if s == UNQUANTIZED:
        ledger.charge(round_, direction, RAW_BITS_PER_COORD * vec.size)
        return vec.copy()
    msg = encode_partition(vec, s, rng)
    ledger.charge(round_, direction, msg.bits)
    return decode(msg)


def _round_schedule(cfg: QfwConfig, T: int):
    """Yield (t, i, k) for rounds 1..T under the period structure."""
    t, i = 1, 1
    while t <= T:
        p = int(cfg.period_fn(i))
        if p < 1:
            raise ValueError("empty period")
        for k in range(1, p + 1):
            if t > T:
                return
            yield t, i, k
            t += 1
        i += 1


def _replicas_agree(S: np.ndarray) -> bool:
    """Whether every row of the stack has the same bytes as row 0."""
    bits = S.view(np.uint64)
    return bool((bits == bits[0]).all())


def run_qfw(problem: FiniteSumProblem, set_: FeasibleSet, cfg: QfwConfig,
            T: int, rng: RngStream, log_points=None):
    """Quantized distributed Frank-Wolfe on a finite sum.

    Returns (SolveTrace, BitLedger).  The N components are partitioned
    evenly across the M workers; anchors with ``anchor_batch_fn -> None``
    use every local component (exact local gradient), inner rounds draw
    mini-batches with replacement from the local partition.

    The M replicas are the rows of one ``(M, d)`` array, advanced together:
    each round makes one stacked ``batch_grad`` call (two on inner rounds),
    while each worker draws its batch and its quantizer bits from its own
    stream and sends its own message.
    """
    N, M, d = problem.n, cfg.M, problem.dim
    if N % M != 0:
        raise ValueError(f"component count {N} not divisible by M={M}")
    n_local = N // M
    if cfg.mode == "fl":
        return _run_fl(problem, set_, cfg, T, rng, log_points)

    x0 = set_.lmo_min(np.zeros(d))
    X = np.tile(x0, (M, 1))
    X_prev = X
    Gbar = np.zeros((M, d))
    worker_rngs = [rng.child(_WORKER_STREAM + m) for m in range(M)]
    offsets = np.arange(M)[:, None] * n_local   # first component of each worker
    master_rng = rng.child(_MASTER_STREAM)
    ledger = BitLedger()
    trace = SolveTrace(meta={"setting": cfg.setting, "M": M, "T": T,
                             "mode": cfg.mode})
    nonconvex = cfg.setting.endswith("nonconvex")
    iterates = [x0.copy()]
    for t, i, k in _round_schedule(cfg, T):
        s1, s2 = int(cfg.s1_fn(i, k)), int(cfg.s2_fn(i, k))
        size = cfg.anchor_batch_fn(i) if k == 1 else cfg.inner_batch_fn(i, k)
        if size is None:
            idx = np.arange(N)              # every worker's whole partition
        else:
            idx = (np.stack([r.integers(n_local, size=int(size))
                             for r in worker_rngs]) + offsets).ravel()
        G = problem.batch_grad(X, idx)
        if k > 1:
            G = G - problem.batch_grad(X_prev, idx)
        decoded = np.stack([_send(G[m], s1, worker_rngs[m], ledger, t, "up")
                            for m in range(M)])
        gtilde = ordered_means(decoded)[0]    # summed in worker order
        broadcast = _send(gtilde, s2, master_rng, ledger, t, "down")

        Gbar = np.tile(broadcast, (M, 1)) if k == 1 else Gbar + broadcast
        eta = float(cfg.eta_fn(i, k, t))
        V = np.stack([set_.lmo_min(g) for g in Gbar])
        X_prev, X = X, X + eta * (V - X)
        if not (_replicas_agree(X) and _replicas_agree(Gbar)):
            raise AssertionError("replica divergence across workers")
        iterates.append(X[0].copy())

        if log_points is None or t in log_points:
            xo = X[0]
            gap = fw_gap(problem.full_grad(xo), set_, xo) if nonconvex else None
            trace.records.append(IterationRecord(
                t=t, objective=problem.value(xo), fw_gap=gap,
                cum_bits=ledger.total))
    if nonconvex:
        idx = int(rng.child(_OUTPUT_STREAM).integers(len(iterates)))
        trace.output = iterates[idx]
        trace.output_rule = "uniform_random_iterate"
    else:
        trace.output = X[0]
        trace.output_rule = "last"
    trace.meta["cum_bits_up"] = ledger.cum_up
    trace.meta["cum_bits_down"] = ledger.cum_down
    return trace, ledger


def _run_fl(problem, set_, cfg, T, rng, log_points):
    """Local-update heuristic: each worker takes one local FW step on its
    own components, then the master averages the models (no guarantee)."""
    N, M, d = problem.n, cfg.M, problem.dim
    X = np.tile(set_.lmo_min(np.zeros(d)), (M, 1))
    idx = np.arange(N)                      # every worker's whole partition
    ledger = BitLedger()
    trace = SolveTrace(meta={"setting": cfg.setting, "M": M, "T": T,
                             "mode": "fl", "guarantee": "none"})
    for t in range(1, T + 1):
        V = np.stack([set_.lmo_min(g) for g in problem.batch_grad(X, idx)])
        X = X + float(cfg.eta_fn(1, 1, t)) * (V - X)
        sent = np.stack([_send(x, UNQUANTIZED, None, ledger, t, "up") for x in X])
        avg = _send(ordered_means(sent)[0], UNQUANTIZED, None, ledger, t, "down")
        X = np.tile(avg, (M, 1))
        if log_points is None or t in log_points:
            trace.records.append(IterationRecord(
                t=t, objective=problem.value(avg), cum_bits=ledger.total))
    trace.output = X[0]
    return trace, ledger


def run_snc_qfw(p: StochasticProblem, set_: FeasibleSet, cfg: QfwConfig,
                T: int, n_surrogate: int, rng: RngStream, log_points=None):
    """Stochastic non-convex wrapper: draw ``n_surrogate`` samples once,
    build the finite-sum surrogate (1/n) sum f(x; z_i), and run the
    finite-sum simulator on it with the nonconvex schedules.

    The surrogate's oracles evaluate ``p`` on the samples ``idx`` names one
    at a time, since a ``StochasticProblem`` has per-sample oracles only."""
    if n_surrogate % cfg.M != 0:
        raise ValueError("surrogate size must be divisible by worker count")
    x0 = set_.lmo_min(np.zeros(p.dim))
    srng = rng.child(0x5A)
    samples = np.empty(n_surrogate, dtype=object)  # indexable like the arrays
    for j in range(n_surrogate):
        samples[j] = p.sample(x0, srng)

    def values(x, idx):
        return np.array([p.value(x, s) for s in samples[idx]])

    def grads(x, idx):
        picked = samples[idx]
        points = np.broadcast_to(x, (len(picked), p.dim))
        return np.array([p.grad(xi, s)
                         for xi, s in zip(points, picked)]).reshape(-1, p.dim)

    surrogate = FiniteSumProblem(p.dim, n_surrogate, values, grads)
    trace, ledger = run_qfw(surrogate, set_, cfg, T, rng, log_points)
    trace.meta["surrogate_n"] = n_surrogate
    if trace.output is not None:
        trace.meta["true_gap"] = fw_gap(p.exact_grad(trace.output), set_,
                                        trace.output)
        trace.meta["surrogate_gap"] = fw_gap(surrogate.full_grad(trace.output),
                                             set_, trace.output)
    return trace, ledger, surrogate
