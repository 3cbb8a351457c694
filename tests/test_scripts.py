"""Each shipped script runs to exit 0 on a small input."""

import ast
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
