"""Seeded input generators and phase plans for the benchmark workloads.

Each workload is a schema, a generator that draws training and held-out
records from a fixed generative process, and a plan of the phases to run
against the files it writes. The generative structure (vocabularies,
affinities, loadings) is fixed; `--seed` varies only the draw, so two seeds
give statistically alike inputs of exactly the same sizes.

The training draw reassigns a few enum draws so that every symbol occurs,
which keeps vocabulary sizes, and with them model shapes, equal across
seeds, and lets the fitted vocabulary cover the held-out records. `run.py`
checks the coverage on the written files rather than trusting it.

Run as a script it writes one workload's inputs, which is what the
benchmark's set-up time measures:

    PYTHONPATH=src python3 bench/workloads.py --workload nested_tx --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    schema: dict
    fmt: str                      # "jsonl" or "csv"
    n_train: int
    n_holdout: int
    n_dp: int                     # leading training records used for DP fit
    model: list                   # --width/--blocks/--heads flags
    fit: list                     # extra `nestgen fit` flags
    dp_fit: list                  # extra `nestgen fit --dp` flags
    sample_count: int
    ingest_reps: int              # repeats of data.ingest per round
    eval_reps: int                # repeats of `nestgen eval` per round
    generate: object              # (rng, n, cover) -> records
    # per phase (setup, ingest, fit, dp_fit, sample, eval): the weights
    # (interp, numpy, memory) of the reference tasks' slowdowns when its
    # times are scaled to reference speed (hostspeed.py)
    host_weights: dict

    @property
    def fit_examples(self) -> int:
        return _flag(self.fit, "--epochs", 1) * self.n_train

    @property
    def dp_examples(self) -> int:
        return _flag(self.dp_fit, "--epochs", 1) * self.n_dp


def _flag(flags, name, default):
    return int(flags[flags.index(name) + 1]) if name in flags else default


def _choice(rng, probs):
    """One categorical draw per row of `probs` (rows sum to 1)."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])[:, None]
    return np.minimum((u > cdf).sum(axis=1), probs.shape[1] - 1)


def _cover(rng, codes, k):
    """codes with a few draws reassigned so that each of 0..k-1 occurs: each
    missing code replaces a random draw whose code occurs more than once.
    Keeps vocabulary sizes, and so model shapes, equal across seeds."""
    codes = codes.copy()
    counts = np.bincount(codes, minlength=k)
    for v in np.flatnonzero(counts == 0):
        spare = np.flatnonzero(counts[codes] > 1)
        i = spare[rng.integers(spare.size)]
        counts[codes[i]] -= 1
        codes[i] = v
        counts[v] = 1
    return codes


def _draw(rng, probs, cover):
    codes = _choice(rng, probs)
    return _cover(rng, codes, probs.shape[1]) if cover else codes


def _split(values, lengths):
    return np.split(values, np.cumsum(lengths)[:-1])


def _same_sizes(rng, lengths, reference):
    """The values of `reference`, reassigned in the rank order of `lengths`
    (ties broken at random). The result keeps the drawn correlation of list
    length with the record's other fields, but its multiset of lengths, and
    so the total work of every phase, is the same for every seed: the
    reference is drawn from a generator seeded by the size alone."""
    order = np.argsort(lengths + rng.random(lengths.size), kind="stable")
    out = np.empty_like(lengths)
    out[order] = np.sort(reference)
    return out


# --------------------------------------------------------------------------
# nested_tx: the ROADMAP baseline schema

NESTED_TX_SCHEMA = {
    "type": "record", "name": "user", "fields": [
        {"name": "age", "type": "float", "bins": 20},
        {"name": "sex", "type": "enum"},
        {"name": "region", "type": "enum"},
        {"name": "tx", "type": "array", "max_len": 8, "items": {
            "type": "record", "name": "transaction", "fields": [
                {"name": "place", "type": "enum"},
                {"name": "price", "type": "float", "bins": 20}]}}]}

_REGIONS = ["north", "south", "east", "west", "central", "coast"]
_PLACES = ["grocer", "fuel", "cafe", "pharmacy", "travel", "online",
           "cinema", "hardware"]
_fixed = np.random.default_rng(20220204)
_REGION_BY_SEX = _fixed.dirichlet(np.full(len(_REGIONS), 2.0), size=2)
_PLACE_BY_REGION = _fixed.dirichlet(np.full(len(_PLACES), 0.8),
                                    size=len(_REGIONS))
_PLACE_PRICE = _fixed.uniform(1.0, 4.5, size=len(_PLACES))


def _ages(rng, n):
    return np.clip(rng.normal(42.0, 13.0, n), 18.0, 90.0)


def _tx_counts(rng, age):
    return np.minimum(rng.poisson(0.8 + age / 18.0), 8)


def gen_nested_tx(rng, n, cover):
    age = _ages(rng, n)
    sex = _draw(rng, np.full((n, 2), 0.5), cover)
    region = _draw(rng, _REGION_BY_SEX[sex], cover)
    ref = np.random.default_rng([n, 0x7478])
    n_tx = _same_sizes(rng, _tx_counts(rng, age),
                       _tx_counts(ref, _ages(ref, n)))
    owner = np.repeat(np.arange(n), n_tx)
    places = _draw(rng, _PLACE_BY_REGION[region[owner]], cover)
    prices = np.exp(rng.normal(_PLACE_PRICE[places] + 0.01 * (age[owner] - 42.0),
                               0.4))
    return [{"age": round(float(age[i]), 1),
             "sex": "FM"[sex[i]],
             "region": _REGIONS[region[i]],
             "tx": [{"place": _PLACES[p], "price": round(float(v), 2)}
                    for p, v in zip(pl, pr)]}
            for i, (pl, pr) in enumerate(zip(_split(places, n_tx),
                                             _split(prices, n_tx)))]


# --------------------------------------------------------------------------
# long_sets: long, mostly padded, shuffled lists of one enum

LONG_SETS_SCHEMA = {
    "type": "record", "name": "basket", "fields": [
        {"name": "segment", "type": "enum"},
        {"name": "channel", "type": "enum"},
        {"name": "tenure", "type": "float", "bins": 10},
        {"name": "items", "type": "array", "max_len": 32, "shuffled": True,
         "items": {"type": "enum", "name": "sku"}}]}

_SEGMENTS = ["s0", "s1", "s2", "s3", "s4"]
_CHANNELS = ["web", "app", "store"]
_SKUS = [f"sku{i:02d}" for i in range(40)]
_SKU_BY_SEGMENT = _fixed.dirichlet(np.full(len(_SKUS), 0.5),
                                   size=len(_SEGMENTS))
_MEAN_LEN_BY_CHANNEL = np.array([4.0, 6.0, 8.0])


def _basket_lengths(rng, channel):
    """Geometric lengths on 0, 1, 2, ... with the channel's mean, capped."""
    p = 1.0 / (1.0 + _MEAN_LEN_BY_CHANNEL[channel])
    return np.minimum(rng.geometric(p) - 1, 32)


def gen_long_sets(rng, n, cover):
    segment = _draw(rng, np.full((n, 5), 0.2), cover)
    channel = _draw(rng, np.full((n, 3), 1 / 3), cover)
    tenure = rng.gamma(2.0, 1.0 + segment)
    ref = np.random.default_rng([n, 0x6c73])
    lengths = _same_sizes(rng, _basket_lengths(rng, channel),
                          _basket_lengths(ref, ref.integers(0, 3, n)))
    owner = np.repeat(np.arange(n), lengths)
    skus = _draw(rng, _SKU_BY_SEGMENT[segment[owner]], cover)
    return [{"segment": _SEGMENTS[segment[i]],
             "channel": _CHANNELS[channel[i]],
             "tenure": round(float(tenure[i]), 3),
             "items": [_SKUS[s] for s in items]}
            for i, items in enumerate(_split(skus, lengths))]


# --------------------------------------------------------------------------
# flat_wide: 16 flat columns, CSV

_CARDS = [2, 3, 5, 8, 12, 20, 50, 200]
FLAT_WIDE_SCHEMA = {
    "type": "record", "name": "row", "fields":
        [{"name": f"c{k}", "type": "enum"} for k in _CARDS]
        + [{"name": f"x{j}", "type": "float", "bins": 50} for j in range(8)]}

_LATENT = 3
_ENUM_LOADINGS = [_fixed.normal(0.0, 1.2, size=(_LATENT, k)) for k in _CARDS]
_ENUM_BASE = [-0.6 * np.log1p(np.arange(k)) for k in _CARDS]   # Zipf-like
_FLOAT_LOADINGS = _fixed.normal(0.0, 1.0, size=(_LATENT, 8))


def gen_flat_wide(rng, n, cover):
    z = rng.normal(size=(n, _LATENT))
    cols = {}
    for k, w, base in zip(_CARDS, _ENUM_LOADINGS, _ENUM_BASE):
        logits = z @ w + base
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cols[f"c{k}"] = [f"c{k}_{v:03d}" for v in _draw(rng, probs, cover)]
    x = z @ _FLOAT_LOADINGS + rng.normal(0.0, 0.5, size=(n, 8))
    x[:, 1::2] = np.exp(x[:, 1::2])        # half the columns skewed
    for j in range(8):
        cols[f"x{j}"] = [round(float(v), 4) for v in x[:, j]]
    return [{name: cols[name][i] for name in cols} for i in range(n)]


# --------------------------------------------------------------------------

# Phase sizes keep each timed call short (under a second on a 2-core
# machine, but for flat_wide's eval, about two) and a round within about
# five seconds, so a run holds several samples of every phase spread over
# its whole window; each fit takes at
# least 10 optimizer steps so the held-out NLL check has a clear margin. Why
# each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="nested_tx",
        schema=NESTED_TX_SCHEMA, fmt="jsonl",
        n_train=768, n_holdout=2000, n_dp=128,
        model=["--width", "32", "--blocks", "2", "--heads", "4"],
        fit=["--epochs", "1", "--batch-size", "64", "--lr", "0.01"],
        dp_fit=["--epochs", "1", "--batch-size", "16", "--lr", "0.01"],
        sample_count=1000, ingest_reps=8, eval_reps=2,
        generate=gen_nested_tx,
        host_weights=dict(setup=(.5, .25, .25), ingest=(1, 0, 0),
                          fit=(0, .75, .25), dp_fit=(.5, .25, .25),
                          sample=(.25, .5, .25), eval=(1, 0, 0))),
    Workload(
        name="long_sets",
        schema=LONG_SETS_SCHEMA, fmt="jsonl",
        n_train=320, n_holdout=1500, n_dp=96,
        model=["--width", "32", "--blocks", "2", "--heads", "4"],
        fit=["--epochs", "1", "--batch-size", "32", "--lr", "0.01",
             "--shuffle-passes", "2"],
        dp_fit=["--epochs", "1", "--batch-size", "32", "--lr", "0.01"],
        sample_count=160, ingest_reps=16, eval_reps=2,
        generate=gen_long_sets,
        host_weights=dict(setup=(.5, .25, .25), ingest=(1, 0, 0),
                          fit=(0, .75, .25), dp_fit=(.5, .25, .25),
                          sample=(0, .75, .25), eval=(1, 0, 0))),
    Workload(
        name="flat_wide",
        schema=FLAT_WIDE_SCHEMA, fmt="csv",
        n_train=640, n_holdout=600, n_dp=256,
        model=["--width", "64", "--blocks", "2", "--heads", "8"],
        fit=["--epochs", "1", "--batch-size", "64", "--lr", "0.01"],
        dp_fit=["--epochs", "1", "--batch-size", "32", "--lr", "0.01"],
        sample_count=300, ingest_reps=4, eval_reps=1,
        generate=gen_flat_wide,
        host_weights=dict(setup=(.5, .25, .25), ingest=(1, 0, 0),
                          fit=(0, .75, .25), dp_fit=(.25, .5, .25),
                          sample=(0, .75, .25), eval=(0, .5, .5))),
]}


def draw(workload: Workload, seed: int):
    """(train, holdout) records for one seed. The training and held-out
    draws each hold every enum symbol: the fitted vocabularies cover the
    held-out records, and `eval`, whose joint tables span the observed
    symbols, does the same work for every seed. The DP subset, the first
    n_dp training records, is drawn on its own and holds every symbol too,
    so its list sizes and the DP model's shapes are the same for every
    seed."""
    rng = np.random.default_rng([seed, 0x6e67])
    dp = workload.generate(rng, workload.n_dp, cover=True)
    rest = workload.generate(rng, workload.n_train - workload.n_dp, cover=True)
    return dp + rest, workload.generate(rng, workload.n_holdout, cover=True)


def input_paths(workdir, workload: Workload) -> dict:
    ext = workload.fmt
    return {"schema": os.path.join(workdir, "schema.json"),
            "train": os.path.join(workdir, f"train.{ext}"),
            "holdout": os.path.join(workdir, f"holdout.{ext}"),
            "dp": os.path.join(workdir, f"dp.{ext}")}


def write_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """Generate and write the workload's input files (see input_paths)
    through nestgen's own parser and writer."""
    from nestgen.data import write_records
    from nestgen.schema import parse_schema

    os.makedirs(workdir, exist_ok=True)
    paths = input_paths(workdir, workload)
    schema = parse_schema(workload.schema)
    train, holdout = draw(workload, seed)
    with open(paths["schema"], "w", encoding="utf-8") as fh:
        json.dump(workload.schema, fh, indent=1)
    write_records(train, schema, paths["train"], workload.fmt)
    write_records(holdout, schema, paths["holdout"], workload.fmt)
    write_records(train[:workload.n_dp], schema, paths["dp"], workload.fmt)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the inputs")
    args = ap.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
