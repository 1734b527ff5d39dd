"""A fresh interpreter on this checkout's package, for the checks that depend on what is already imported."""

import os
import subprocess
import sys
from pathlib import Path

import cubicode

SRC = str(Path(cubicode.__file__).resolve().parents[1])


def python(*argv, text=True):
    """(exit status, stdout, stderr) of `python ARGV` with this checkout's package on the path.

    The child runs under -O when this run does and ARGV does not already
    start with -O, so a suite run under python -O also runs every spawned
    command under -O.  Help wraps at 80 columns.
    """
    optimize = ["-O"] if sys.flags.optimize and argv[:1] != ("-O",) else []
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [inherited])])}
    proc = subprocess.run([sys.executable, *optimize, *argv], env=env, capture_output=True, text=text, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr
