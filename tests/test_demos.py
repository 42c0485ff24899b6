"""Smoke test: the demo scripts run to completion against the package.

Demo 04 trains two models for about as long as acceptance criterion 9,
which already covers training, so it is left out here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = ["01_selective_scan.py", "02_blended_attention.py", "03_scaling_curves.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
