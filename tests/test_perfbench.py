"""The benchmark's tracer self-test, run with the suite.

`perfbench/selftest.py` solves a tiny instance with every method under the
layer tracer and fails when a wrapped layer records no call. Running it here
makes a solver change that moves a layer out of the tracer's reach fail the
suite, not only a traced benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and "selftest passed" in proc.stdout, proc.stdout + proc.stderr
