"""The benchmark's own self-test, run as part of the suite.

``bench/selftest.py`` patches module attributes such as
``data.load_csv`` and ``data.inject_noise`` and imports the layer
functions by name, so a refactor that moves those hooks breaks the
benchmark without failing any unit test. This runs it end to end.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_meets_every_expectation():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "44/44 expectations met" in proc.stdout, proc.stdout
