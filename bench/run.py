"""nestgen benchmark: runs one workload end to end and prints its metrics.

    python3 bench/run.py --workload nested_tx --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from --seed in a child process (the
set-up, timed SETUP_REPEATS times), then the user paths run in this
process, one after another, through the public entry points:
`nestgen.data.ingest`, and `nestgen.cli.main` for `fit`, `fit --dp`,
`sample` and `eval`. Rounds of those phases repeat until --seconds would be
exceeded; each throughput is the median over rounds. Every timing is taken
at reference speed (hostspeed.py), which cancels the drift of a shared
host's speed. Outputs are checked (`Bench.check_outputs`, and
bitwise equality of every round's results); the run exits 1 if a check
fails.

With --trace 1 the run instead reports per-layer metrics (see tracing.py):
an untraced round, a traced round, a second untraced round for the tracing
overhead, and a round under tracemalloc for per-phase allocation peaks.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
DETERMINISM_COUNT = 64
# host-speed weights (interp, numpy, memory) for the untimed checks' calls
UNTIMED_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)
# synth_marginal_score uses pairwise marginals: the 4-way joint tables of the
# default `eval --k 4` have more cells than these workloads have rows, so
# their score is mostly sampling noise that moves with the seed. The timed
# eval still runs with the defaults a user gets.
SCORE_K = 2

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ingest_records_per_s", "rec/s", "higher"),
    ("fit_examples_per_s", "ex/s", "higher"),
    ("dp_fit_examples_per_s", "ex/s", "higher"),
    ("sample_records_per_s", "rec/s", "higher"),
    ("eval_records_per_s", "rec/s", "higher"),
    ("holdout_nll", "nats/record", "lower"),
    ("synth_marginal_score", "score", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class CheckFailed(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement budget; rounds stop before exceeding it")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS/OpenMP threads (default 1)")
    return ap.parse_args(argv)


class Bench:
    """One workload's files, phases and checks inside one process."""

    def __init__(self, workload, paths, workdir, clock):
        from nestgen.schema import parse_schema
        self.w = workload
        self.clock = clock
        self.paths = paths
        self.workdir = workdir
        self.schema = parse_schema(workload.schema)
        self.bundle = os.path.join(workdir, "model.ngm")
        self.dp_bundle = os.path.join(workdir, "dp.ngm")
        self.synth = os.path.join(workdir, f"synth.{workload.fmt}")
        self.report = os.path.join(workdir, "report.json")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # ---- bookkeeping

    def count(self, attempted, failed, what):
        """Record operations attempted and failed; `what` names a failure."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)
        return not failed

    def check(self, ok, what):
        return self.count(1, 0 if ok else 1, what)

    def cli(self, *argv, phase=None):
        """Run `nestgen *argv` in-process; returns its time at reference
        speed, weighted for `phase` (untimed checks pass none)."""
        from nestgen import cli
        weights = self.w.host_weights[phase] if phase else UNTIMED_WEIGHTS
        out = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out):
            rc, _, dt = self.clock.time(cli.main, list(argv),
                                          weights=weights)
        if not self.check(rc == 0, f"nestgen {argv[0]} exited {rc}"):
            raise CheckFailed(f"nestgen {' '.join(argv)} exited {rc}")
        return dt

    # ---- phases

    def round(self, hook=contextlib.nullcontext):
        """Run every phase once, ingest and eval `reps` times; returns the
        times by phase, at reference speed (hostspeed.py). hook(phase)
        wraps each phase."""
        from nestgen import data
        w, p = self.w, self.paths
        t = {}
        with hook("ingest"):
            t["ingest"] = []
            for _ in range(w.ingest_reps):
                gc.collect()
                (_, _, report), _, dt = self.clock.time(
                    data.ingest, p["train"], self.schema,
                    weights=w.host_weights["ingest"])
                t["ingest"].append(dt)
                self.check(report.rejected == 0 and report.kept == w.n_train,
                           "ingest rejected generated records")
        with hook("fit"):
            t["fit"] = [self.cli("fit", "--schema", p["schema"], "--data",
                                 p["train"], "--out", self.bundle,
                                 *w.model, *w.fit, phase="fit")]
        with hook("dp_fit"):
            t["dp_fit"] = [self.cli("fit", "--dp", "--schema", p["schema"],
                                    "--data", p["dp"], "--out", self.dp_bundle,
                                    *w.model, *w.dp_fit, phase="dp_fit")]
        with hook("sample"):
            t["sample"] = [self.cli("sample", "--model", self.bundle, "--count",
                                    str(w.sample_count), "--out", self.synth,
                                    "--seed", "1", phase="sample")]
        with hook("eval"):
            t["eval"] = [self.cli("eval", p["holdout"], self.synth, "--schema",
                                  p["schema"], "--out", self.report,
                                  phase="eval")
                         for _ in range(w.eval_reps)]
        return t

    def outputs(self):
        """(holdout NLL, eval marginal score) of the last round; both must
        repeat bitwise from round to round."""
        with open(self.report, encoding="utf-8") as fh:
            score = json.load(fh)["marginal"]["score"]
        return self.holdout_nll(trained=True), score

    def pairwise_score(self):
        """marginal.score of `nestgen eval --k SCORE_K`, synthetic against
        held-out records (untimed)."""
        report = os.path.join(self.workdir, "report_pairwise.json")
        self.cli("eval", self.paths["holdout"], self.synth, "--schema",
                 self.paths["schema"], "--k", str(SCORE_K), "--out", report)
        with open(report, encoding="utf-8") as fh:
            return json.load(fh)["marginal"]["score"]

    def holdout_nll(self, trained):
        """Mean per-record NLL of the held-out records, identity order, under
        the fitted bundle or (trained=False) the same model freshly
        initialised from the same seed."""
        import numpy as np
        from nestgen.artifact import load_model
        from nestgen.codecs.base import pass_losses
        from nestgen.data import ingest_records, read_records
        from nestgen.schema import compile_schema
        codec, store, tf, config, _ = load_model(self.bundle)
        if not trained:
            codec, store = compile_schema(
                tf.schema, width=config["width"], blocks=config["blocks"],
                heads=config["heads"], seed=config["seed"], tables=tf.tables)
        records = read_records(self.paths["holdout"])
        tree, _, report = ingest_records(records, tf.schema, transform=tf)
        losses = pass_losses(codec, store, tree)[0].data
        self.check(report.rejected == 0, "held-out records rejected")
        self.count(len(losses), int((~np.isfinite(losses)).sum()),
                   "non-finite held-out losses")
        return float(losses.mean())

    # ---- checks made once per run, outside the timed rounds

    def check_outputs(self, nll):
        from nestgen import data
        from nestgen.artifact import load_model
        from nestgen.schema import Enum, leaf_columns
        w = self.w
        synth = data.read_records(self.synth)
        self.check(len(synth) == w.sample_count, "sample wrote the wrong count")
        try:
            _, report = data.check_records(synth, self.schema)
            self.count(len(synth), report.rejected,
                       "sampled records fail check_records")
        except data.DataError as e:
            self.count(len(synth), len(synth), f"check_records failed: {e}")
        _, _, tf, _, _ = load_model(self.bundle)
        try:
            _, _, rep = data.ingest_records(synth, tf.schema, transform=tf)
            self.check(rep.rejected == 0, "sampled records rejected on "
                       "re-ingest with the fitted transform")
        except data.DataError as e:
            self.check(False, f"sampled records do not re-ingest: {e}")

        a, b = (os.path.join(self.workdir, f"det{i}.{w.fmt}") for i in (0, 1))
        for path in (a, b):
            self.cli("sample", "--model", self.bundle, "--count",
                     str(DETERMINISM_COUNT), "--out", path, "--seed", "7")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            self.check(fa.read() == fb.read(),
                       "same-seed samples are not byte-identical")

        untrained = self.holdout_nll(trained=False)
        self.check(math.isfinite(nll) and nll < untrained,
                   f"holdout NLL {nll} not below untrained {untrained}")

        with open(self.report, encoding="utf-8") as fh:
            columns = set(json.load(fh)["columns"])
        leaves = {name for name, _ in leaf_columns(self.schema)}
        self.check(leaves <= columns,
                   f"eval report lacks columns {sorted(leaves - columns)}")

        enums = {name for name, node in leaf_columns(self.schema)
                 if isinstance(node, Enum)}
        train = data.flatten_records(data.read_records(self.paths["train"]),
                                     self.schema)
        held = data.flatten_records(data.read_records(self.paths["holdout"]),
                                    self.schema)
        unseen = []
        for level in ("record", "item"):
            for col, vals in (held[level] or {}).items():
                if col in enums:
                    missing = set(map(str, vals)) - set(map(str, train[level][col]))
                    unseen += [f"{col}={v}" for v in sorted(missing)]
        self.check(not unseen, f"held-out symbols absent from training: "
                   f"{unseen[:5]}")


def setup(workload, seed, workdir, env, clock):
    """Generate and write the inputs in a fresh interpreter (import nestgen
    included), SETUP_REPEATS times; returns the median time at reference
    speed. The wait has no timeout: with one, subprocess polls the child
    every 50 ms and the times come out in 50 ms steps."""
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"), "--workload",
           workload.name, "--seed", str(seed), "--out", workdir]
    times = [clock.time(subprocess.run, cmd, env=env, check=True,
                        weights=workload.host_weights["setup"])[2]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def measure(bench, seconds):
    """Rounds until another of average length would overrun `seconds`."""
    rounds, outs = [], []
    start = time.perf_counter()
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(bench.round())
        busy += time.perf_counter() - t0
        outs.append(bench.outputs())
        if time.perf_counter() - start + busy / len(rounds) > seconds:
            break
    return rounds, outs


def end_to_end(bench, rounds, outs, setup_s):
    w = bench.w

    # the first round warms caches and lazy imports; it is left out when
    # at least two others remain
    timed = rounds[1:] if len(rounds) > 2 else rounds

    def med(phase):
        return statistics.median(x for r in timed for x in r[phase])

    return {
        "setup_s": setup_s,
        "ingest_records_per_s": w.n_train / med("ingest"),
        "fit_examples_per_s": w.fit_examples / med("fit"),
        "dp_fit_examples_per_s": w.dp_examples / med("dp_fit"),
        "sample_records_per_s": w.sample_count / med("sample"),
        "eval_records_per_s": (w.n_holdout + w.sample_count) / med("eval"),
        "holdout_nll": outs[0][0],
        "synth_marginal_score": bench.pairwise_score(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(bench, seed):
    """Untraced, traced, untraced and tracemalloc rounds; per-layer metrics."""
    import tracemalloc
    from tracing import Tracer

    tracer = Tracer()
    fit_counts = {}

    @contextlib.contextmanager
    def count_fit(phase):
        before = (tracer.counts.get("tape_ops", 0),
                  tracer.calls.get("codecs.train_step", 0))
        yield
        if phase == "fit":
            fit_counts["ops"] = tracer.counts.get("tape_ops", 0) - before[0]
            fit_counts["steps"] = (tracer.calls.get("codecs.train_step", 0)
                                   - before[1])

    mem = {}

    @contextlib.contextmanager
    def peak_alloc(phase):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        mem[phase] = (tracemalloc.get_traced_memory()[1] - base) / 1e6

    walls, outs = [], []
    for kind in ("plain", "traced", "plain", "mem"):
        t0 = time.perf_counter()
        if kind == "traced":
            tracer.install()
            try:
                bench.round(count_fit)
            finally:
                tracer.uninstall()
        elif kind == "mem":
            tracemalloc.start()
            try:
                bench.round(peak_alloc)
            finally:
                tracemalloc.stop()
        else:
            bench.round()
        walls.append(time.perf_counter() - t0)
        outs.append(bench.outputs())
    overhead = walls[1] / ((walls[0] + walls[2]) / 2) - 1
    metrics = tracer.metrics(fit_counts.get("ops", 0), fit_counts.get("steps", 0),
                             os.path.getsize(bench.bundle), mem, overhead)
    spans = os.path.join(ROOT, ".bench_work",
                         f"spans-{bench.w.name}-{seed}.npz")
    tracer.save(spans)
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    return metrics, outs


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = str(args.blas_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not os.path.isfile(os.path.join(SRC, "nestgen", "__init__.py")):
        print(f"error: nestgen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from hostspeed import TASKS, Clock
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**32

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{w.name}-{seed}-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        clock = Clock()
        setup_s = setup(w, seed, workdir, env, clock)
        import nestgen
        if os.path.realpath(os.path.join(os.path.dirname(nestgen.__file__),
                                         "..")) != os.path.realpath(SRC):
            print(f"error: imported nestgen from {nestgen.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        bench = Bench(w, workloads.input_paths(workdir, w), workdir, clock)
        try:
            if args.trace:
                metrics, outs = traced(bench, seed)
            else:
                rounds, outs = measure(bench, args.seconds)
                values = end_to_end(bench, rounds, outs, setup_s)
                units = {name: unit for name, unit, _ in END_TO_END}
                metrics = {k: (v, units[k]) for k, v in values.items()}
            bench.check(all(o == outs[0] for o in outs),
                        f"outputs differ between rounds: {outs}")
            bench.check_outputs(outs[0][0])
        except CheckFailed as e:
            print(f"error: {e}", file=sys.stderr)
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{w.name:<10} {name:<46} {value:>14.6g} {unit}")
    for task in TASKS:
        slowdown = statistics.median(s[task] for s in clock.slowdowns)
        print(f"{w.name:<10} {'host_slowdown.' + task:<46} {slowdown:>14.6g} "
              f"x reference (median over {len(clock.slowdowns)} timed calls)")
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"{w.name:<10} {'failed_frac':<46} {failed_frac:>14.6g} share "
          f"({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ok = bench.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": ok, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
