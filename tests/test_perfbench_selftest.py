"""The benchmark's self-test (``perfbench/selftest.py``) runs every workload at
tiny sizes, traced and untraced, and checks the metrics it emits.  It writes
only under the git-ignored ``.perfbench_out/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
