"""Projection-free stochastic optimization toolkit.

Momentum Frank-Wolfe with one stochastic sample per iteration, quantized
distributed Frank-Wolfe with an exact bit ledger, and zeroth-order
continuous greedy for DR-submodular maximization, plus the constraint
oracles and benchmark problems used to verify their guarantees.
"""

from .rng import RngStream, sample_unit_sphere
from .constraints import (
    Box,
    L1Ball,
    NuclearNormBall,
    PartitionMatroid,
    PartitionMatroidPolytope,
    Simplex,
    pipage_round,
    shrink_translate,
)
from .problems import (
    Coverage,
    FacilityLocation,
    LogisticL1,
    Modular,
    MultilinearProblem,
    NQP,
    Quadratic,
    RobustLRMR,
    multilinear_exact,
    multilinear_grad_hess,
)
from .solvers import Schedule, bcg, dbg, deterministic_fw, fw_gap, oblivious_sfw, one_sfw
from .quantize import decode, encode_partition
from .distsim import run_qfw, schedule_from_theorem

__version__ = "0.1.0"
