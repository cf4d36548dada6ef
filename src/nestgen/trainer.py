"""Mini-batch training with optional order augmentation and DP-SGD.

One top-level record is one example. Under differential privacy each step
runs one forward and one backward pass over the batch that keep every
example's gradient apart (`per_example_gradients`): the tape records each
parameter read, and `dp_step` takes each example's gradient norm from those
reads, clips every example's whole gradient to the bound with one scaled
product per read, and adds Gaussian noise to the clipped mean, all without
a (batch, n_params) matrix. Privacy accounting (epsilon/delta) is
deliberately not computed here: the run log holds one record per step, each
with the clip norm and noise multiplier (`dp`), and the bundle manifest the
batch size and dataset size (`config.batch_size`, `records`).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ExampleGrads
from .batches import n_rows, take
from .codecs.base import per_example_gradients, train_step
from .optim import Adam
from .rng import BATCH, DP_NOISE, SHUFFLE, stream

_log = logging.getLogger("nestgen.trainer")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 256
    lr: float = 1e-3
    shuffle_passes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.shuffle_passes < 1:
            raise ValueError("shuffle_passes must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass(frozen=True)
class DpConfig:
    clip_norm: float = 1e-3
    noise_multiplier: float = 1.08

    def __post_init__(self):
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and positive, got {self.clip_norm}")
        if not (math.isfinite(self.noise_multiplier) and self.noise_multiplier >= 0):
            raise ValueError("noise_multiplier must be finite and >= 0, "
                             f"got {self.noise_multiplier}")


def dp_step(grads: ExampleGrads, dp: DpConfig, rng) -> np.ndarray:
    """Clip each example's gradient to L2 norm <= C, average, add
    N(0, (sigma*C/B)^2) noise per coordinate. grads holds the B examples'
    gradients (`per_example_gradients`); the result is one vector laid out
    as `ParamStore.flat`, and its noise one draw over the whole vector, the
    same stream as drawing it parameter by parameter in store order."""
    norms = np.sqrt(grads.sq_norms())
    factors = np.minimum(1.0, dp.clip_norm / np.maximum(norms, 1e-300))
    total = grads.clipped_sums(factors)
    total /= grads.examples
    if dp.noise_multiplier > 0:
        total += rng.normal(0.0, dp.noise_multiplier * dp.clip_norm / grads.examples, total.size)
    return total


def fit(codec, store, data, cfg: TrainConfig, dp: DpConfig | None = None,
        log=None) -> list[dict]:
    """Train the codec parameters in place. Returns the per-batch history,
    one record per optimizer step: {epoch, batch, loss, grad_norm, dp}.
    The same records are written as JSON lines to `log`, an open text file,
    when given."""
    n = n_rows(data)
    if n < 1:
        raise ValueError("empty dataset")
    opt = Adam(lr=cfg.lr)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    history = []
    for epoch in range(cfg.epochs):
        order = stream(cfg.seed, BATCH, epoch).permutation(n)
        epoch_losses = []
        for b in range(steps_per_epoch):
            batch = take(data, order[b * cfg.batch_size:(b + 1) * cfg.batch_size])
            shuffle_rng = stream(cfg.seed, SHUFFLE, epoch, b)  # unshuffled nodes never draw
            try:
                if dp is not None:
                    losses, ex = per_example_gradients(codec, store, batch, rng=shuffle_rng,
                                                       passes=cfg.shuffle_passes)
                    loss = float(losses.mean())
                    grads = dp_step(ex, dp, stream(cfg.seed, DP_NOISE, epoch, b))
                else:
                    loss, grads = train_step(codec, store, batch, rng=shuffle_rng,
                                             passes=cfg.shuffle_passes)
                grad_norm = math.sqrt(sum((v * v).sum() for v in store.views(grads).values()))
                opt.step(store, grads)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch} batch {b}: {e}") from None
            rec = {"epoch": epoch, "batch": b, "loss": loss, "grad_norm": grad_norm,
                   "dp": None if dp is None else {"C": dp.clip_norm, "sigma": dp.noise_multiplier}}
            history.append(rec)
            epoch_losses.append(loss)
            if log is not None:
                log.write(json.dumps(rec) + "\n")
                log.flush()
        _log.info("epoch %d: mean loss %.6f over %d batches",
                  epoch, float(np.mean(epoch_losses)), steps_per_epoch)
    return history


def epoch_means(history: list[dict]) -> list[float]:
    """Mean loss per epoch from a fit history."""
    out = {}
    for rec in history:
        out.setdefault(rec["epoch"], []).append(rec["loss"])
    return [float(np.mean(out[e])) for e in sorted(out)]
