"""Run Python code in a fresh interpreter on this checkout's sources.

A test that must see a cold import, or a numpy or OpenBLAS setting that is
read once at start-up, cannot run in the test process.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_python(*args, **env):
    """`python args...` with src/ and tests/ on PYTHONPATH and env over this environment."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=environ, timeout=300)
