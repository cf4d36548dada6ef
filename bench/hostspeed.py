"""Host-speed calibration for the benchmark's timings.

The 2-vCPU machines the benchmark runs on share their host, whose speed
moves between states up to about 1.7x apart, each lasting from seconds to
minutes. Process CPU time slows with wall time and the guest sees no steal
time, so no statistic over one run's samples removes the drift: a 30 s run
that falls in a slow minute reads slow throughout.

`Clock` therefore times three fixed reference tasks, which depend on numpy
and the standard library only (never on nestgen), right before and right
after every timed call: one bound by the interpreter (JSON parsing, dict
building), one by numpy's per-call dispatch on small arrays, one by memory
(filling a count table far larger than a core's own caches). The call's
wall time is divided by the host's slowdown around it (see Clock): a
timing "at reference speed", the time the call would take on a host that
runs the tasks in REFERENCE_S. A change to nestgen moves the call's time and not the
references', so it shows in full; a change of host speed moves both and
cancels.

A slow host state does not slow every kind of code alike: in 200 s probes
on the baseline machine the interpreter task slowed by up to about 2x and
the other two by up to about 1.6x, and `data.ingest` followed the first
closely while `nestgen fit` and `sample` followed a mix of the other two.
So each phase weighs the three slowdowns by its own `host_weights`
(workloads.py), chosen from those probes as the weights that left the
least drift between 25 s windows. The weights only decide how well drift
cancels: two runs in the same host state are scaled alike whatever the
weights, so a comparison of two versions of nestgen stays fair.
"""

from __future__ import annotations

import collections
import json
import statistics
import time

import numpy as np

# Each reference task's time, in seconds, on the machine the baseline was
# taken on when it ran fast; timings are reported as if the host ran at
# that speed.
REFERENCE_S = {"interp": 0.0023, "numpy": 0.0025, "memory": 0.0035}
REFERENCE_REPEATS = 3

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((128, 32))
_W = _rng.standard_normal((32, 32)) * 0.2
_ROWS = _rng.integers(0, 128, 128)
_TEXT = "\n".join(json.dumps(
    {"a": i, "b": i * 0.5, "c": f"s{i % 13}",
     "d": [{"p": f"x{j}", "q": j * 1.5} for j in range(i % 5)]})
    for i in range(120))
_CELLS = 2_000_000
_SLOTS = _rng.integers(0, _CELLS, 50_000)


def interp_task() -> int:
    """Interpreter-bound: JSON parsing and dict building."""
    columns = {}
    for _ in range(5):
        for line in _TEXT.split("\n"):
            for key, value in json.loads(line).items():
                columns.setdefault(key, []).append(value)
    return len(columns["d"])


def numpy_task() -> float:
    """Small-array numpy calls, dominated by dispatch: matmul, exp,
    reductions, fancy indexing."""
    x = _X
    for _ in range(40):
        h = x @ _W
        e = np.exp(h - h.max(axis=1, keepdims=True))
        x = np.tanh(e[_ROWS] / e.sum(axis=1, keepdims=True)[_ROWS] + x)
    return float(x.sum())


def memory_task() -> int:
    """Memory-bound: a 16 MB count table, filled and summed, as `eval`'s
    joint marginals build."""
    return int(np.bincount(_SLOTS, minlength=_CELLS).sum())


TASKS = {"interp": interp_task, "numpy": numpy_task, "memory": memory_task}


class Clock:
    """Times calls at reference speed.

    Runs every reference task REFERENCE_REPEATS times after every timed
    call (and once more at the start). A task's slowdown around a call is
    the median of its durations from WINDOW_S before the call started to
    just after it ended (never fewer than the runs right before and right
    after it), over its REFERENCE_S: the host's state lasts seconds or
    longer, so the window smooths out the tasks' own jitter without mixing
    states. The call's slowdown weighs the tasks' by `weights`."""

    WINDOW_S = 1.0

    def __init__(self):
        for task in TASKS.values():  # warm-up: first-call allocations
            task()
        self.refs = collections.deque()  # (end time, {task: seconds})
        self.slowdowns = []  # {task: slowdown}, one per timed call
        self._reference()

    def _reference(self):
        for _ in range(REFERENCE_REPEATS):
            took = {}
            for name, task in TASKS.items():
                t0 = time.perf_counter()
                task()
                took[name] = time.perf_counter() - t0
            self.refs.append((time.perf_counter(), took))

    def time(self, fn, *args, weights, **kwargs):
        """(fn's result, wall seconds, seconds at reference speed);
        `weights` holds one weight per task, in TASKS order, summing to 1."""
        t0 = time.perf_counter()
        while (len(self.refs) > REFERENCE_REPEATS
               and self.refs[0][0] < t0 - self.WINDOW_S):
            self.refs.popleft()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._reference()
        slow = {name: statistics.median(took[name] for _, took in self.refs)
                / REFERENCE_S[name] for name in TASKS}
        self.slowdowns.append(slow)
        return result, wall, wall / sum(w * slow[name]
                                        for name, w in zip(TASKS, weights))
