#!/usr/bin/env python3
# Nested records: each user carries a variable-length list of transactions.
#
# The list codec factorizes a row as p(length) * prod_i p(item_i | earlier).
# Padding comes after each row's items and attention is causal, so no item
# attends it, and a loss mask zeroes its terms: it adds exactly zero to the
# loss and the gradients, so a batch can mix empty and full lists freely. This demo trains on users whose
# transaction places depend on their segment, then verifies the sampled data
# has the same length profile and the same segment-to-place coupling.

import argparse

import numpy as np

from nestgen.codecs.base import sample_rows
from nestgen.data import ingest_records, records_from_batch
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import TrainConfig, fit

SCHEMA = parse_schema({
    "type": "record", "name": "user", "fields": [
        {"name": "segment", "type": "enum"},
        {"name": "transactions", "type": "array", "max_len": 4,
         "items": {"type": "record", "name": "transaction", "fields": [
             {"name": "place", "type": "enum"}]}},
    ]})

LENGTH_P = [0.25, 0.35, 0.25, 0.15]


def make_users(n, rng):
    out = []
    for _ in range(n):
        seg = "a" if rng.random() < 0.5 else "b"
        m = int(rng.choice(4, p=LENGTH_P))
        places = ["north", "south"] if seg == "a" else ["south", "east"]
        out.append({"segment": seg,
                    "transactions": [
                        {"place": places[rng.random() > 0.75]}
                        for _ in range(m)]})
    return out


def length_profile(users):
    counts = np.bincount([len(u["transactions"]) for u in users], minlength=5)
    return np.round(counts / len(users), 3)


def place_given_segment(users):
    out = {}
    for seg in ("a", "b"):
        places = [t["place"] for u in users if u["segment"] == seg
                  for t in u["transactions"]]
        vals, counts = np.unique(places, return_counts=True)
        out[seg] = dict(zip(vals.tolist(),
                            np.round(counts / len(places), 3).tolist()))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--users", type=int, default=6000)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    users = make_users(args.users, rng)
    batch, tf, _ = ingest_records(users, SCHEMA)
    codec, store = compile_schema(tf.schema, width=16, blocks=1, heads=4,
                                  seed=args.seed, tables=tf.tables)

    history = fit(codec, store, batch,
                  TrainConfig(epochs=args.epochs, batch_size=500, lr=0.02,
                              seed=args.seed))
    print(f"trained {len(history)} steps, "
          f"loss {history[0]['loss']:.3f} -> {history[-1]['loss']:.3f}")
    assert history[-1]["loss"] < history[0]["loss"]

    tree = sample_rows(codec, store, 20000, np.random.default_rng(1))
    synth = records_from_batch(tree, tf)

    print("\nlist length profile (lengths 0..4):")
    print("  real :", length_profile(users))
    print("  synth:", length_profile(synth))

    print("\nplace distribution given segment:")
    real_cond, synth_cond = place_given_segment(users), place_given_segment(synth)
    for seg in ("a", "b"):
        print(f"  segment {seg} real :", real_cond[seg])
        print(f"  segment {seg} synth:", synth_cond[seg])

    # every share is within 0.05 of the real one
    gaps = list(np.abs(length_profile(synth) - length_profile(users)))
    for seg in ("a", "b"):
        real, fake = real_cond[seg], synth_cond[seg]
        gaps += [abs(real.get(p, 0.0) - fake.get(p, 0.0)) for p in set(real) | set(fake)]
    print(f"\nlargest share gap: {max(gaps):.3f}")
    assert max(gaps) <= 0.05


if __name__ == "__main__":
    main()
