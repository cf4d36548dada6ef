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
# three ways: plain, through the DP path with a bound no example reaches and
# no noise (which must match the plain fit), and privately at C=0.001.

import numpy as np

from nestgen import autodiff as ad
from nestgen.batches import take
from nestgen.codecs.base import per_example_gradients
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

# dp_step returns one flat vector over every parameter, here w's 40
# coordinates; with sigma=0 it is exactly the mean of the clipped rows
quiet = dp_step(per_example, DpConfig(clip_norm=C, noise_multiplier=0.0), rng)
factors = np.minimum(1.0, C / norms)
by_hand = (grads * factors[:, None]).mean(axis=0)
same = np.allclose(quiet, by_hand, rtol=1e-12, atol=0.0)
print("noiseless dp_step equals clip-then-average:", same)
assert same

# with noise, repeated calls scatter around that mean with std sigma*C/B
noisy = np.stack([
    dp_step(per_example, DpConfig(clip_norm=C, noise_multiplier=sigma),
            np.random.default_rng(100 + r))
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

# the first batch's per-example gradient norms at initialization, against
# the clip bound of the private run below
codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2, seed=0,
                              tables=tf.tables)
_, at_init = per_example_gradients(codec, store, take(batch, np.arange(1000)))
init_norms = np.sqrt(at_init.sq_norms())
print(f"per-example gradient norms at init: {init_norms.min():.2f} to "
      f"{init_norms.max():.2f}")

losses = {}
for label, dp in [("plain", None),
                  ("dp C=1e6 sigma=0", DpConfig(clip_norm=1e6, noise_multiplier=0.0)),
                  ("dp C=0.001 sigma=1.08",
                   DpConfig(clip_norm=1e-3, noise_multiplier=1.08))]:
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2,
                                  seed=0, tables=tf.tables)
    history = fit(codec, store, batch,
                  TrainConfig(epochs=40, batch_size=1000, lr=0.02, seed=0),
                  dp=dp)
    losses[label] = np.array([h["loss"] for h in history])
    tail = losses[label][-8:].mean()
    print(f"{label:>24}: final-epoch loss {tail:.4f}")

# with a bound no example reaches and no noise, the DP path takes the plain
# path's steps: the same gradient, summed from the per-example reads
gap = np.abs(losses["dp C=1e6 sigma=0"] - losses["plain"]).max()
print(f"unclipped noiseless DP against plain: largest per-step loss gap {gap:.1e}")
assert gap < 1e-12

# The uniform model scores 2 ln 2 = 1.39 nats. The plain fit ends near 1.08,
# and the unclipped, noiseless DP fit follows it step for step. The private
# fit at C=0.001 ends near 5 nats, worse than uniform. Every per-example
# norm above is about 1.4, so C=0.001 clips every example: each step is the
# mean of per-example gradients rescaled to one norm, which weights each
# example's direction equally, and Adam's per-coordinate scaling undoes the
# 1/1000 shrink, so the steps push the model toward confident majority
# predictions. The clipping causes the rise, not the noise: a run with the
# same clip and sigma=0 ends at 5.01 nats. A useful private fit on this
# problem needs a bound near the per-example norms.
