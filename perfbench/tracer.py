"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces the bindings that fwlab's own callers use (module
attributes for names imported with ``from x import y``, class attributes for
methods) with wrappers that record one span per call: name, start, end,
parent span and the seed it belongs to.  Spans are kept in memory and
written out when the run ends.  A layer's self time is its span's duration
minus the durations of its child spans.  A call into a layer from inside a
span of the same name records no new span, so an inherited ``lmo_max`` that
calls ``lmo_min`` counts as one LMO.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

#: Span names whose inclusive time counts as logging and exact reference.
REFERENCE_SPANS = frozenset({"solvers.log", "problems.finite_sum_value"})

#: Cost of one unquantized coordinate, the base of ``distsim.bits_vs_raw``.
RAW_BITS_PER_COORD = 32

# Fields of one span record.
NAME, START, END, PARENT, SEED, WORK = range(6)

#: Per-layer metrics: (name, unit, better).  ``_s`` is self time.
LAYER_METRICS = [
    ("rng.child_calls", "calls/seed", "lower"),
    ("rng.child_s", "s/seed", "lower"),
    ("problems.sample_calls", "calls/seed", "lower"),
    ("problems.sample_s", "s/seed", "lower"),
    ("problems.multilinear_value_calls", "calls/seed", "lower"),
    ("problems.multilinear_value_s", "s/seed", "lower"),
    ("problems.multilinear_grad_calls", "calls/seed", "lower"),
    ("problems.multilinear_grad_s", "s/seed", "lower"),
    ("problems.finite_sum_grad_calls", "calls/seed", "lower"),
    ("problems.finite_sum_components", "components/seed", "lower"),
    ("problems.finite_sum_grad_s", "s/seed", "lower"),
    ("problems.finite_sum_value_calls", "calls/seed", "lower"),
    ("problems.finite_sum_value_s", "s/seed", "lower"),
    ("estimators.variation_calls", "calls/seed", "lower"),
    ("estimators.variation_s", "s/seed", "lower"),
    ("estimators.momentum_s", "s/seed", "lower"),
    ("estimators.two_point_calls", "calls/seed", "lower"),
    ("estimators.two_point_s", "s/seed", "lower"),
    ("constraints.lmo_calls", "calls/seed", "lower"),
    ("constraints.lmo_s", "s/seed", "lower"),
    ("constraints.contains_calls", "calls/seed", "lower"),
    ("constraints.contains_s", "s/seed", "lower"),
    ("quantize.messages", "messages/seed", "lower"),
    ("quantize.encode_s", "s/seed", "lower"),
    ("quantize.decode_s", "s/seed", "lower"),
    ("distsim.rounds", "rounds/seed", "higher"),
    ("distsim.bits_up", "bits/seed", "lower"),
    ("distsim.bits_down", "bits/seed", "lower"),
    ("distsim.bits_vs_raw", "ratio", "lower"),
    ("distsim.self_s", "s/seed", "lower"),
    ("solvers.iterations", "iterations/seed", "higher"),
    ("solvers.samples_per_iter", "samples/iter", "lower"),
    ("solvers.self_s", "s/seed", "lower"),
    ("solvers.fw_gap_s", "s/seed", "lower"),
    ("solvers.reference_share", "fraction", "lower"),
    ("bench.load_config_s", "s/seed", "lower"),
    ("bench.build_problem_s", "s/seed", "lower"),
    ("bench.write_trace_s", "s/seed", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def _schedule_horizon(args, kwargs, result):
    return {"iterations": int(args[2].T)}       # one_sfw / oblivious_sfw


def _bcg_horizon(args, kwargs, result):
    return {"iterations": int(args[3])}


def _distsim_work(args, kwargs, result):
    problem, T = args[0], args[3]
    ledger = result[1]
    return {"iterations": int(T),
            "rounds": len({r for r, _, _ in ledger.entries}),
            "bits_up": ledger.cum_up, "bits_down": ledger.cum_down,
            "bits_raw": RAW_BITS_PER_COORD * problem.dim * len(ledger.entries)}


def _batch_components(args, kwargs, result):
    return {"components": len(args[2])}


def bindings():
    """(owner, attribute, span name, work extractor) for every patched call.

    Owners are the modules and classes whose attribute the caller looks up,
    e.g. ``fwlab.solvers.momentum_update`` rather than the estimators module,
    because solvers imported the name directly.
    """
    import fwlab.bench as bench
    import fwlab.cli as cli
    import fwlab.constraints as constraints
    import fwlab.distsim as distsim
    import fwlab.problems as problems
    import fwlab.rng as rng
    import fwlab.solvers as solvers

    out = [
        (rng.RngStream, "child", "rng.child", None),
        (problems.StochasticProblem, "sample", "problems.sample", None),
        (problems, "multilinear_exact", "problems.multilinear_value", None),
        (problems, "multilinear_grad_hess", "problems.multilinear_grad", None),
        (problems.FiniteSumProblem, "batch_grad", "problems.finite_sum_grad",
         _batch_components),
        (problems.FiniteSumProblem, "value", "problems.finite_sum_value", None),
        (solvers, "variation_exact_hessian", "estimators.variation", None),
        (solvers, "variation_grad_diff", "estimators.variation", None),
        (solvers, "variation_oblivious", "estimators.variation", None),
        (solvers, "momentum_update", "estimators.momentum", None),
        (solvers, "two_point_gradient", "estimators.two_point", None),
        (solvers, "fw_gap", "solvers.fw_gap", None),
        (solvers, "_log", "solvers.log", None),
        (distsim, "fw_gap", "solvers.fw_gap", None),
        (distsim, "encode_partition", "quantize.encode", None),
        (distsim, "decode", "quantize.decode", None),
        (bench, "one_sfw", "solvers.solve", _schedule_horizon),
        (bench, "oblivious_sfw", "solvers.solve", _schedule_horizon),
        (bench, "bcg", "solvers.solve", _bcg_horizon),
        (bench, "run_qfw", "distsim.run", _distsim_work),
        (bench, "build_problem", "bench.build_problem", None),
        (bench, "build_constraint", "bench.build_constraint", None),
        (bench, "write_trace", "bench.write_trace", None),
        (cli, "load_config", "bench.load_config", None),
        (cli, "run_experiment", "bench.run_experiment", None),
    ]
    todo = list(constraints.FeasibleSet.__subclasses__())
    while todo:
        cls = todo.pop(0)
        todo.extend(cls.__subclasses__())
        # Set on each concrete class, so inherited methods are wrapped too.
        out += [(cls, "lmo_min", "constraints.lmo", None),
                (cls, "lmo_max", "constraints.lmo", None),
                (cls, "contains", "constraints.contains", None)]
    return out


class Tracer:
    """Records spans while installed; ``spans`` holds one list per span."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.seed = None      # tag for the spans of the current seed
        self.hits = Counter()  # (owner name, attribute) -> calls seen
        self._stack = []
        self._saved = []

    def span(self, name, fn, key=None, work=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        spans, stack, clock, hits = self.spans, self._stack, self.clock, self.hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits[key] += 1
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.seed, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, work in bindings():
            own = owner.__dict__.get(attr)
            original = own if own is not None else getattr(owner, attr)
            key = (owner.__name__, attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self.span(name, original, key, work))
        return self

    def uninstall(self):
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)      # back to the inherited method
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    def write(self, path):
        """One line per span: id, parent, seed, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,seed,name,start_ns,end_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[SEED]},{s[NAME]},{s[START]},{s[END]}\n")


def self_times(spans):
    """Per-span self time in clock units: duration minus child durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, n_seeds, traced_s, untraced_s, unit_s=1e-9):
    """Per-seed layer metrics from the spans of ``n_seeds`` traced seeds.

    ``traced_s`` and ``untraced_s`` are the summed times of the same seeds
    run with and without tracing.  Shares of seed time are taken over the
    root spans, in the spans' own clock.
    """
    calls, own_s, work = Counter(), Counter(), Counter()
    for s, own in zip(spans, self_times(spans)):
        calls[s[NAME]] += 1
        own_s[s[NAME]] += own * unit_s
        if s[WORK]:
            work.update(s[WORK])
    reference_s = 0.0
    root_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0) * unit_s
    for s in spans:
        if s[NAME] in REFERENCE_SPANS:
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in REFERENCE_SPANS:
                p = spans[p][PARENT]
            if p < 0:
                reference_s += (s[END] - s[START]) * unit_s
    n = n_seeds
    iters = work["iterations"]
    bits = work["bits_up"] + work["bits_down"]
    out = {
        "rng.child_calls": calls["rng.child"] / n,
        "rng.child_s": own_s["rng.child"] / n,
        "problems.sample_calls": calls["problems.sample"] / n,
        "problems.sample_s": own_s["problems.sample"] / n,
        "problems.multilinear_value_calls": calls["problems.multilinear_value"] / n,
        "problems.multilinear_value_s": own_s["problems.multilinear_value"] / n,
        "problems.multilinear_grad_calls": calls["problems.multilinear_grad"] / n,
        "problems.multilinear_grad_s": own_s["problems.multilinear_grad"] / n,
        "problems.finite_sum_grad_calls": calls["problems.finite_sum_grad"] / n,
        "problems.finite_sum_components": work["components"] / n,
        "problems.finite_sum_grad_s": own_s["problems.finite_sum_grad"] / n,
        "problems.finite_sum_value_calls": calls["problems.finite_sum_value"] / n,
        "problems.finite_sum_value_s": own_s["problems.finite_sum_value"] / n,
        "estimators.variation_calls": calls["estimators.variation"] / n,
        "estimators.variation_s": own_s["estimators.variation"] / n,
        "estimators.momentum_s": own_s["estimators.momentum"] / n,
        "estimators.two_point_calls": calls["estimators.two_point"] / n,
        "estimators.two_point_s": own_s["estimators.two_point"] / n,
        "constraints.lmo_calls": calls["constraints.lmo"] / n,
        "constraints.lmo_s": own_s["constraints.lmo"] / n,
        "constraints.contains_calls": calls["constraints.contains"] / n,
        "constraints.contains_s": own_s["constraints.contains"] / n,
        "quantize.messages": calls["quantize.encode"] / n,
        "quantize.encode_s": own_s["quantize.encode"] / n,
        "quantize.decode_s": own_s["quantize.decode"] / n,
        "distsim.rounds": work["rounds"] / n,
        "distsim.bits_up": work["bits_up"] / n,
        "distsim.bits_down": work["bits_down"] / n,
        "distsim.bits_vs_raw": bits / work["bits_raw"] if work["bits_raw"] else 0.0,
        "distsim.self_s": own_s["distsim.run"] / n,
        "solvers.iterations": iters / n,
        "solvers.samples_per_iter": calls["problems.sample"] / iters if iters else 0.0,
        "solvers.self_s": own_s["solvers.solve"] / n,
        "solvers.fw_gap_s": own_s["solvers.fw_gap"] / n,
        "solvers.reference_share": reference_s / root_s if root_s else 0.0,
        "bench.load_config_s": own_s["bench.load_config"] / n,
        "bench.build_problem_s": own_s["bench.build_problem"] / n,
        "bench.write_trace_s": own_s["bench.write_trace"] / n,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    return out
