"""Run the benchmark's self-test, which reads srklab's result types.

``perfbench/selftest.py`` builds small real outputs and corrupts one of
each kind: it reads ``SRkOrbit`` fields and rebuilds orbits with
``dataclasses.replace``, and reads the ``Attractor`` and basin grid fields.
A change to those types that breaks the benchmark's checks fails here.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
