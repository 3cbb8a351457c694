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
from .problems import FiniteSumProblem, ordered_means
from .quantize import UNQUANTIZED, decode, encode_partition
from .rng import RngStream
from .solvers import IterationRecord, SolveTrace, fw_gap, random_iterate

__all__ = [
    "QfwConfig",
    "BitLedger",
    "run_qfw",
    "schedule_from_theorem",
    "RAW_BITS_PER_COORD",
    "SETTINGS",
    "MODES",
]

RAW_BITS_PER_COORD = 32
LEVEL_CAP = 2**16
_WORKER_STREAM = 0x700
_MASTER_STREAM = 0x600

SETTINGS = ("finite_convex", "finite_nonconvex")
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

    ``setting`` is finite_convex or finite_nonconvex; ``mode`` is quantized,
    unquantized, or fl (local-update heuristic with end-of-round model
    averaging, no guarantee).  The callables take the period index i
    (1-based) and inner index k.
    """

    M: int
    setting: str
    period_fn: object          # i -> p_i
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


def schedule_from_theorem(setting: str, n_total: int, M: int, d: int, T: int,
                          mode: str = "quantized") -> QfwConfig:
    """Theorem-prescribed periods, batches, steps, and quantization levels.

    Fractional quantities are rounded up and floored at 1; levels are
    additionally capped at 2^16.  With ``mode="unquantized"`` both links
    send raw vectors (levels ``UNQUANTIZED``) on the same schedule.
    """
    if setting == "finite_convex":
        period = lambda i: 2 ** (i - 1)
        inner = lambda i, k: max(1, math.ceil(2 ** (i - 1) / M))
        eta = lambda i, k, t: 2.0 / (2 ** (i - 1) + k)
        s1 = lambda i, k: _cap_levels(
            math.sqrt(d * (2 ** (i - 1)) ** 2 / M) if k == 1
            else math.sqrt(d * 2 ** (i - 1) / M))
        s2 = lambda i, k: _cap_levels(
            math.sqrt(d * (2 ** (i - 1)) ** 2) if k == 1
            else math.sqrt(d * 2 ** (i - 1)))
    elif setting == "finite_nonconvex":
        p = max(1, math.ceil(math.sqrt(n_total)))
        period = lambda i: p
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
                     inner_batch_fn=inner, eta_fn=eta, s1_fn=s1, s2_fn=s2,
                     mode=mode)


def _send_rows(V: np.ndarray, s: int, rngs: list[RngStream] | None,
               ledger: BitLedger, round_: int, direction: str) -> np.ndarray:
    """Quantize-and-transmit each row of the stack V as its own message, row r
    drawing from ``rngs[r]``, in one encoder call; returns the stack the
    receivers decode.  The ledger charges each row as one message, in row
    order."""
    if s == UNQUANTIZED:
        bits, out = RAW_BITS_PER_COORD * V.shape[1], V.copy()
    else:
        msg = encode_partition(V, s, rngs)
        bits, out = msg.bits_per_row, decode(msg)
    for _ in range(len(V)):
        ledger.charge(round_, direction, bits)
    return out


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
            T: int, rng: RngStream):
    """Quantized distributed Frank-Wolfe on a finite sum.

    Returns (SolveTrace, BitLedger), with one trace record per round.  The
    N components are partitioned evenly across the M workers; anchors use
    every local component (exact local gradient), inner rounds draw
    mini-batches with replacement from the local partition.

    The M replicas are the rows of one ``(M, d)`` array, advanced together:
    each round makes one stacked ``batch_grad`` call (on inner rounds over
    X and X_prev stacked) and one encoder call for the M up-link messages.
    Each worker still draws its batch and its quantizer bits from its own
    stream, and each message is charged on its own.
    """
    N, M, d = problem.n, cfg.M, problem.dim
    if N % M != 0:
        raise ValueError(f"component count {N} not divisible by M={M}")
    n_local = N // M
    if cfg.mode == "fl":
        return _run_fl(problem, set_, cfg, T)

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
    iterates = [x0.copy()] if nonconvex else None
    for t, i, k in _round_schedule(cfg, T):
        s1, s2 = int(cfg.s1_fn(i, k)), int(cfg.s2_fn(i, k))
        if k == 1:   # every worker's whole partition
            G = problem.batch_grad(X, range(N))
        else:   # X and X_prev as one stack of 2M rows, each block alone
            size = int(cfg.inner_batch_fn(i, k))
            idx = (np.stack([r.integers(n_local, size=size)
                             for r in worker_rngs]) + offsets).ravel()
            both = problem.batch_grad(np.concatenate([X, X_prev]),
                                      np.concatenate([idx, idx]))
            G = both[:M] - both[M:]
        decoded = _send_rows(G, s1, worker_rngs, ledger, t, "up")
        gtilde = ordered_means(decoded)[None]   # (1, d), summed in worker order
        broadcast = _send_rows(gtilde, s2, [master_rng], ledger, t, "down")[0]

        Gbar = np.tile(broadcast, (M, 1)) if k == 1 else Gbar + broadcast
        eta = float(cfg.eta_fn(i, k, t))
        V = np.stack([set_.lmo_min(g) for g in Gbar])
        X_prev, X = X, X + eta * (V - X)
        if not (_replicas_agree(X) and _replicas_agree(Gbar)):
            raise AssertionError("replica divergence across workers")
        if nonconvex:
            iterates.append(X[0].copy())

        xo = X[0]
        gap = fw_gap(problem.full_grad(xo), set_, xo) if nonconvex else None
        trace.records.append(IterationRecord(
            t=t, objective=problem.value(xo), fw_gap=gap, cum_bits=ledger.total))
    if nonconvex:
        _, trace.output = random_iterate(iterates, rng)
        trace.output_rule = "uniform_random_iterate"
    else:
        trace.output = X[0]
        trace.output_rule = "last"
    trace.meta["cum_bits_up"] = ledger.cum_up
    trace.meta["cum_bits_down"] = ledger.cum_down
    return trace, ledger


def _run_fl(problem, set_, cfg, T):
    """Local-update heuristic: each worker takes one local FW step on its
    own components, then the master averages the models (no guarantee)."""
    N, M, d = problem.n, cfg.M, problem.dim
    X = np.tile(set_.lmo_min(np.zeros(d)), (M, 1))
    idx = range(N)                          # every worker's whole partition
    ledger = BitLedger()
    trace = SolveTrace(meta={"setting": cfg.setting, "M": M, "T": T,
                             "mode": "fl", "guarantee": "none"})
    for t, i, k in _round_schedule(cfg, T):
        V = np.stack([set_.lmo_min(g) for g in problem.batch_grad(X, idx)])
        X = X + float(cfg.eta_fn(i, k, t)) * (V - X)
        sent = _send_rows(X, UNQUANTIZED, None, ledger, t, "up")
        avg = _send_rows(ordered_means(sent)[None], UNQUANTIZED, None, ledger, t,
                         "down")[0]
        X = np.tile(avg, (M, 1))
        trace.records.append(IterationRecord(
            t=t, objective=problem.value(avg), cum_bits=ledger.total))
    trace.output = X[0]
    return trace, ledger

