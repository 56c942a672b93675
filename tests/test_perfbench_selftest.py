"""The benchmark's own self-test, run as part of the tier-1 suite.

``perfbench/tracing.py`` patches library classes and methods by name, and
every workload checks its answers against an oracle, so renaming a patched
entry point or breaking a workload answer fails here rather than only in the
separate benchmark job."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "selftest: ok" in completed.stdout
