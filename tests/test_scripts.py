"""Each shipped script runs to exit 0 on a small input."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args", [
    ("gen_logistic_csv.py", ["logistic.csv"]),
    ("settable_values.py", []),
], ids=["gen_logistic_csv", "settable_values"])
def test_script_runs(tmp_path, script, args):
    # run in tmp_path, so the files a script writes land there
    _run(script, args, tmp_path, timeout=120)


def test_claims_small_is_byte_stable(tmp_path):
    # every claim row, at a size that runs in seconds; seeds are fixed, so two
    # runs print the same bytes, and the script writes no file
    first = _run("claims.py", ["--small"], tmp_path, timeout=5)
    assert _run("claims.py", ["--small"], tmp_path, timeout=5) == first
    assert first.count("\n") == 2 + 6 + 6 + 3
    assert not any(tmp_path.iterdir())


def _script_module(name):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        return __import__(name)
    finally:
        sys.path.pop(0)


def test_ab_sign_test_and_quartiles():
    # the arithmetic of the A/B driver alone; no perfbench run is launched
    ab = _script_module("ab")
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert ab.sign_test_p(10, 0) == ab.sign_test_p(0, 10) == 2 / 1024
    assert ab.sign_test_p(8, 2) == 2 * (45 + 10 + 1) / 1024
    assert ab.sign_test_p(5, 5) == ab.sign_test_p(0, 0) == 1.0
    # a tie counts for neither side
    assert ab.change_better([1, 2, 3], [2, 2, 1], "higher") == [True, False, False]
    assert ab.change_better([1, 2, 3], [2, 2, 1], "lower") == [False, False, True]
    s = ab.summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 6.0], "higher")
    assert (s["change_better_pairs"], s["sign_test_p"]) == (3, 2 * 1 / 8)
    assert s["median_change_pct"] == 40.0 and s["parent_iqr"] == 1.5


def test_ab_reproduces_a_recorded_comparison():
    # BENCH_25.json's summaries were computed before the driver existed;
    # from their per-pair runs it gives back every recorded figure
    ab = _script_module("ab")
    summary = json.loads((ROOT / "BENCH_25.json").read_text())["summary"]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, recorded in summary.items():
        for m in metrics:
            rec = recorded[m["name"]]
            got = ab.summarize(rec["runs"]["parent"], rec["runs"]["change"],
                               m["better"])
            for side in ("parent", "change"):
                assert got[side] == pytest.approx(rec[side], rel=1e-12)
            for key in ("median_change_pct", "change_better_pairs", "parent_iqr"):
                assert got[key] == rec[key], (workload, m["name"], key)


def test_ab_verdicts_follow_the_benchmark_rule():
    # BENCH_25.json's comparison, read by the benchmark's rule: 10 of 10
    # pairs and a median gain above the parent's IQR on bcg-coverage-d12 and
    # qfw-logistic-n4000 speed and on every peak RSS; nothing worse by more
    # than its bound
    ab = _script_module("ab")
    summary = json.loads((ROOT / "BENCH_25.json").read_text())["summary"]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    got = {(workload, m["name"]): ab.verdict(
        ab.summarize(recorded[m["name"]]["runs"]["parent"],
                     recorded[m["name"]]["runs"]["change"], m["better"]),
        m["better"], m["bound"])
        for workload, recorded in summary.items() for m in metrics}
    gains = {(w, "iters_per_s") for w in ("bcg-coverage-d12", "qfw-logistic-n4000")}
    gains |= {(w, "peak_rss_mb") for w in summary}
    assert got == {key: "gain" if key in gains else "unresolved" for key in got}
    # 9 of 10 pairs suffice; a median 26% slower is a regression under the
    # 0.25 bound of setup_s, and 24% slower is not
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    faster = [v - 0.5 for v in parent[:9]] + [2.0]
    assert ab.verdict(ab.summarize(parent, faster, "lower"), "lower", 0.25) == "gain"
    assert ab.verdict(ab.summarize(parent, faster, "higher"), "higher", 0.25) == "regression"
    for scale, want in ((1.26, "regression"), (1.24, "unresolved")):
        slower = [v * scale for v in parent]
        assert ab.verdict(ab.summarize(parent, slower, "lower"), "lower", 0.25) == want


def test_settable_values_rule():
    # parameters without self/cls, lambdas excluded, plus dataclass fields;
    # the second count is the parameters with defaults
    count = _script_module("settable_values").count
    src = """
from dataclasses import dataclass

def f(a, b=1, *args, c, d=2, **kw):
    g = lambda x, y=0: x
    def inner(e):
        return e

class K:
    def m(self, x, y=3):
        pass

    @classmethod
    def make(cls, z):
        pass

@dataclass
class R:
    t: int
    u: float = 0.0
    NOT_A_FIELD = 1
"""
    assert count(ast.parse(src)) == (6 + 1 + 2 + 1 + 2, 2 + 1)
