"""The benchmark runs end to end on the current sources.

Each workload of `bench/run.py` runs for one second, so a change in `src/`
that breaks a name, option or output the benchmark relies on fails here
rather than only when the benchmark is next run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["nested_tx", "long_sets", "flat_wide"])
def test_benchmark_workload_passes(workload):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
