"""Each shipped script runs to exit 0 on a small input."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("estimator_decay.py", ["--seeds", "2", "--horizon", "32", "--out", "decay.csv"]),
    ("qfw_bits.py", ["--horizons", "7", "--workers", "2"]),
    ("submax_compare.py", ["--seeds", "1"]),
    ("gen_logistic_csv.py", ["logistic.csv"]),
    ("settable_values.py", []),
], ids=["estimator_decay", "qfw_bits", "submax_compare", "gen_logistic_csv",
        "settable_values"])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # run in tmp_path, so the files a script writes land there
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_settable_values_rule():
    # parameters without self/cls, lambdas excluded, plus dataclass fields;
    # the second count is the parameters with defaults
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from settable_values import count
    finally:
        sys.path.pop(0)
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
