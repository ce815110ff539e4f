"""The benchmark harness's self-test still runs against the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    """The harness looks up every name it traces (``perfbench/spans.py``), so
    deleting or renaming a wrapped function breaks traced benchmark runs."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
