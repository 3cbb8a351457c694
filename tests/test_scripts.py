"""Each shipped script runs to exit 0 on a small input."""

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
], ids=["estimator_decay", "qfw_bits", "submax_compare", "gen_logistic_csv"])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # run in tmp_path, so the files a script writes land there
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
