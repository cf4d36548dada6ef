"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload nested_tx --seeds 1-10 --seconds 35
    python3 bench/spread.py --workload flat_wide --seeds 1-5 --out runs.json

Each seed is one `bench/run.py --trace 0` run in its own process, one after
another. For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. --out writes the per-seed
results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}"
                                           for k, v in runs[seed].items()),
              flush=True)

    summary = {}
    for name in bounds:
        values = [r[name] for r in runs.values()]
        if len(values) >= 2:
            summary[name] = summarize(values)
            s = summary[name]
            flag = "" if s["spread"] < bounds[name] / 3 else "  > bound/3"
            print(f"{name:<24} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}"
                  f"  q3 {s['q3']:>12.6g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
