# Differentially private optimization: per-example clipping plus Gaussian
# noise on the averaged gradient.
#
# dp_step takes a batch's per-example gradients as an autodiff.ExampleGrads:
# what a per-example tape recorded of every parameter read (the inputs a and
# output gradients g of each read, by example). From those reads it computes
# each example's gradient norm, rescales every example's gradient to L2 norm
# at most C, averages, and adds independent N(0, (sigma*C/batch)^2) noise per
# coordinate, without ever building the (batch, n_params) matrix. The same
# step runs inside fit() when a DpConfig is passed; there the ExampleGrads
# comes from per_example_gradients, which runs one forward and one backward
# pass over the whole batch. This script first shows the mechanics on a
# synthetic set of per-example gradients, then trains the same small model
# with and without privacy to show the cost in loss.

import numpy as np

from nestgen import autodiff as ad
from nestgen.data import ingest_records
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import DpConfig, TrainConfig, dp_step, fit

# -- the mechanics on fabricated per-example gradients -------------------------

rng = np.random.default_rng(3)
C, sigma, B = 0.5, 1.1, 256
grads = rng.normal(size=(B, 40)) * np.geomspace(0.01, 5.0, B)[:, None]

# example i's loss is w . grads[i] for a one-row (1, 40) table w that every
# example looks up, so its gradient is grads[i]; a per-example tape records
# the one read of w
w = ad.Tensor(np.zeros((1, 40)))
per_example = ad.ExampleGrads(B, [w])
with ad.Tape(per_example=per_example) as tape:
    loss = ad.sum_all(ad.mul_const(ad.gather_rows(w, np.zeros(B, dtype=np.int64)), grads))
tape.backward(loss)

norms = np.linalg.norm(grads, axis=1)
print(f"raw per-example norms: min {norms.min():.3f} max {norms.max():.3f}")

# dp_step returns one array per parameter; with sigma=0 w's is exactly the
# mean of the clipped rows
(quiet,) = dp_step(per_example, DpConfig(clip_norm=C, noise_multiplier=0.0), rng)
factors = np.minimum(1.0, C / norms)
by_hand = (grads * factors[:, None]).mean(axis=0)
same = np.allclose(quiet[0], by_hand, rtol=1e-12, atol=0.0)
print("noiseless dp_step equals clip-then-average:", same)
assert same

# with noise, repeated calls scatter around that mean with std sigma*C/B
noisy = np.stack([
    dp_step(per_example, DpConfig(clip_norm=C, noise_multiplier=sigma),
            np.random.default_rng(100 + r))[0][0]
    for r in range(2000)])
measured = (noisy - by_hand).std()
print(f"noise std measured {measured:.3e}, expected {sigma * C / B:.3e}")
assert abs(measured / (sigma * C / B) - 1.0) < 0.05

# -- the cost of privacy on a real fit ----------------------------------------

SCHEMA = parse_schema({
    "type": "record", "name": "row", "fields": [
        {"name": "x", "type": "enum"},
        {"name": "y", "type": "enum"},
    ]})

data_rng = np.random.default_rng(0)
rows = []
for _ in range(4000):
    x = "p" if data_rng.random() < 0.6 else "q"
    y = x if data_rng.random() < 0.85 else ("q" if x == "p" else "p")
    rows.append({"x": x, "y": y})
batch, tf, _ = ingest_records(rows, SCHEMA)

for label, dp in [("plain", None),
                  ("dp C=0.001 sigma=1.08",
                   DpConfig(clip_norm=1e-3, noise_multiplier=1.08))]:
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2,
                                  seed=0, tables=tf.tables)
    history = fit(codec, store, batch,
                  TrainConfig(epochs=40, batch_size=1000, lr=0.02, seed=0),
                  dp=dp)
    tail = np.mean([h["loss"] for h in history[-8:]])
    print(f"{label:>24}: final-epoch loss {tail:.4f}")

# The private run lands close to the plain one on this easy problem; the
# clip bound mostly changes the effective step size while the noise sets a
# floor on how precisely the optimum can be tracked.
