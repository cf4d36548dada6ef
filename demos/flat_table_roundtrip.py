#!/usr/bin/env python3
"""Fit a model on a flat table and read the learned joint back out.

The table has two correlated categorical columns and one numeric column.
After training we (a) enumerate the model's joint distribution exactly and
compare it to the data frequencies, and (b) draw synthetic rows and check
the marginals. Small widths are enough for three columns.
"""

import numpy as np

from nestgen.codecs.base import sample_rows, train_step
from nestgen.codecs.exact import joint_table
from nestgen.data import ingest_records, records_from_batch
from nestgen.optim import Adam
from nestgen.schema import compile_schema, parse_schema

SCHEMA = parse_schema({
    "type": "record", "name": "visit", "fields": [
        {"name": "channel", "type": "enum"},
        {"name": "plan", "type": "enum"},
        {"name": "minutes", "type": "float", "bins": 4},
    ]})


def make_rows(n, rng):
    rows = []
    for _ in range(n):
        channel = "web" if rng.random() < 0.7 else "store"
        # plan depends on the channel, minutes depend on the plan
        if channel == "web":
            plan = "basic" if rng.random() < 0.8 else "plus"
        else:
            plan = "basic" if rng.random() < 0.3 else "plus"
        base = 5.0 if plan == "basic" else 18.0
        rows.append({"channel": channel, "plan": plan,
                     "minutes": round(base + rng.uniform(0, 4), 1)})
    return rows


def column_freq(rows, key):
    vals, counts = np.unique([r[key] for r in rows], return_counts=True)
    return dict(zip(vals.tolist(), np.round(counts / len(rows), 3).tolist()))


def main():
    rng = np.random.default_rng(7)
    rows = make_rows(4000, rng)
    batch, tf, report = ingest_records(rows, SCHEMA)
    print(f"ingested {report.kept} rows, vocab sizes:",
          {p: len(v) for p, v in tf.vocabs.items()})

    codec, store = compile_schema(tf.schema, width=12, blocks=1, heads=2,
                                  seed=0, tables=tf.tables)
    opt = Adam(lr=0.02)
    for step in range(600):
        loss, grads = train_step(codec, store, batch)
        opt.step(store, grads)
        if step % 150 == 0:
            print(f"step {step:4d}  loss {loss:.4f}")

    # exact joint over (channel, plan): compare model probabilities with
    # the data frequencies they were fitted to
    outcomes, probs = joint_table(codec, store)
    data_freq = {}
    for r in rows:
        key = (r["channel"], r["plan"])
        data_freq[key] = data_freq.get(key, 0) + 1 / len(rows)
    print("\njoint over (channel, plan), model vs data:")
    pair_prob = {}
    for o, p in zip(outcomes, probs):
        key = (tf.vocabs["visit/channel"][o["channel"]],
               tf.vocabs["visit/plan"][o["plan"]])
        pair_prob[key] = pair_prob.get(key, 0.0) + p
    for key in sorted(data_freq):
        print(f"  {key}: model {pair_prob[key]:.3f}  data {data_freq[key]:.3f}")

    # synthetic rows through the fitted transform
    tree = sample_rows(codec, store, 4000, np.random.default_rng(1))
    synth = records_from_batch(tree, tf)
    print("\nchannel marginal, real:", column_freq(rows, "channel"),
          " synth:", column_freq(synth, "channel"))
    real_minutes = np.array([r["minutes"] for r in rows])
    synth_minutes = np.array([r["minutes"] for r in synth])
    print("minutes mean/std, real: "
          f"{real_minutes.mean():.2f}/{real_minutes.std():.2f}  synth: "
          f"{synth_minutes.mean():.2f}/{synth_minutes.std():.2f}")


if __name__ == "__main__":
    main()
