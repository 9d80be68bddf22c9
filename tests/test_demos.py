"""Smoke tests for the demo scripts: each runs to the end in a fresh process.

The demos exercise DynamicsParams, SamplerConfig, stationary_covariance,
mseb_descriptor and StandardizeTransform.invert the way a reader would. Each
runs with PYTHONPATH=src in an empty temporary directory and must exit 0 and
print its closing line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each demo and the start of the last line it prints
DEMOS = [
    ("01_integrator_exactness.py", "  h=0.2: converged Gaussian-W2 distance "),
    ("02_quadratic_benchmark.py", "SAGA carries an O(N d) memory table to do it."),
    ("03_logistic_regression.py", "(window: the second half of the 14400-query budget)"),
]


@pytest.mark.parametrize("script, closing", DEMOS, ids=[name for name, _ in DEMOS])
def test_demo_runs_to_its_closing_line(script, closing, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(closing), done.stdout[-2000:]
