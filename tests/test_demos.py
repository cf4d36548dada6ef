"""The quick demos run to completion: each is a script whose own asserts
check what it shows, so exit 0 means they still hold against the current
API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["autodiff_attention_tour.py", "fidelity_metrics.py",
                                  "nested_lists.py", "private_training.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in [src, env.get("PYTHONPATH")] if p)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
