"""The benchmark's own test: ``python -m pytest perfbench`` from the repository root."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
