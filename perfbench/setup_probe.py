"""Set-up as a fresh interpreter pays it: import ``fwlab.cli``, load the
config, build the problem and the constraint.  Prints the system-wide
monotonic clock when done, so ``run.py`` can time from before the launch to
the end of set-up without waiting on the process's exit.

Usage: python3 setup_probe.py CONFIG.ini
"""

import sys
import time

from fwlab import cli

cfg = cli.load_config(sys.argv[1])
problem, _ = cli.build_problem(cfg.problem)
cli.build_constraint(cfg.constraint, problem.dim)
print(time.monotonic())
