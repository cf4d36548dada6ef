"""The codec contract: encode, score and sample one schema node.

`encode(x, rng)` turns an observation into a fixed-width embedding and
returns it with the observation's scorer: `score(cond)` runs the decoder from
conditioning rows and scores x in the same walk, and its per-example
negative log likelihood is the training loss. `sample` draws each child from
its decoder conditioning and feeds the draw back through the encoder, one
position at a time. These are every codec's three duties, composites
included. A leaf's scorer is its one `categorical_nll` op over its codes; a
composite's closes over its digests and its children's scorers. Orders come
only from the `rng` given to `encode`, so each decoding pass (`pass_losses`)
encodes the batch again to draw its own. A shuffled composite draws its
order before its children encode, so a shuffled pass is a plain pass over
the reordered observation (see `composites`). Composite codecs own child
codecs and wire them together with causal attention; the root codec is
scored from a fixed initial conditioning vector, and its embedding is
unused.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tape, Tensor
from ..batches import concat_trees, n_rows
from ..params import ParamStore

SAMPLE_CHUNK = 32768  # rows per root `sample` call in `sample_rows`


class Codec:
    """A codec's three duties: encode, score and sample."""

    path: str
    width: int

    def encode(self, x, rng=None):
        """Return (embedding (B, d) Tensor, score), where score(cond) decodes
        from conditioning rows (B, d) and returns the per-example negative
        log likelihood of x, shape (B,). rng drives shuffle permutations;
        rng=None means identity order everywhere."""
        raise NotImplementedError

    def sample(self, cond, rng):
        """Draw observations given conditioning rows (B, d); returns (batch
        tree, embedding of the sampled values). The embedding is what encode
        returns for the sampled tree (numeric values read as their bins), so
        a parent appends it to its own encoder sequence. Composites decode
        with cached attention steps, never a stack over a whole prefix."""
        raise NotImplementedError

    def children(self):
        return []

    def walk(self):
        yield self
        for c in self.children():
            yield from c.walk()

    def has_shuffle(self) -> bool:
        return any(getattr(c, "shuffled", False) for c in self.walk())


def root_conditioning(store: ParamStore, n: int) -> Tensor:
    """The fixed initial conditioning rows for a batch of n examples: n
    copies of `store.c0`, which `compile_schema` sets."""
    if store.c0 is None:
        raise ValueError("parameter store has no c0 vector to condition the root on")
    return Tensor(np.tile(store.c0, (n, 1)))


def pass_losses(codec: Codec, store: ParamStore, batch, rng=None,
                passes: int = 1) -> list[Tensor]:
    """Per-example loss vector for each decoding pass.

    Each pass encodes the batch, drawing its shuffle orders from rng, and
    scores it. With no shuffled node anywhere, passes > 1 is a configuration
    error rather than silent duplicate work.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if passes > 1 and not codec.has_shuffle():
        raise ValueError("multiple decoding passes need at least one shuffled node")
    cond = root_conditioning(store, n_rows(batch))
    return [codec.encode(batch, rng=rng)[1](cond) for _ in range(passes)]


def train_step(codec: Codec, store: ParamStore, batch, rng=None, passes: int = 1):
    """One forward/backward: returns (mean loss float, `store.gradients()`)."""
    store.zero_grads()
    with Tape() as tape:
        total = reduce(ad.add, pass_losses(codec, store, batch, rng=rng, passes=passes))
        loss = ad.mul_const(ad.mean_all(total), 1.0 / passes)
    tape.backward(loss)
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite training loss")
    return float(loss.data), store.gradients()


def per_example_gradients(codec: Codec, store: ParamStore, batch, rng=None,
                          passes: int = 1):
    """Loss and gradients of each example separately (DP path).

    Returns (losses (B,), grads), where grads is the tape's
    `autodiff.ExampleGrads` over the store's parameters in store order:
    example i's gradient is what `train_step` gives for example i alone, and
    grads yields its squared norms and clipped sums without building the
    (B, n_params) matrix. The whole batch runs one forward and one backward
    pass: the seed is the sum of the per-example losses. Shuffle
    permutations are drawn once for the batch, as `train_step` draws them.
    """
    store.zero_grads()
    grads = ad.ExampleGrads(n_rows(batch), [t for _, t in store.items()])
    with Tape(per_example=grads) as tape:
        total = reduce(ad.add, pass_losses(codec, store, batch, rng=rng, passes=passes))
        losses = ad.mul_const(total, 1.0 / passes)
        loss = ad.sum_all(losses)
    tape.backward(loss)
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite training loss")
    for path, t in store.items():
        if t.grad is not None:
            raise RuntimeError(f"{path}: read by an op with no per-example gradient rule")
    return losses.data, grads


def sample_rows(codec: Codec, store: ParamStore, count: int, rng):
    """Draw `count` observations from the root codec in SAMPLE_CHUNK chunks;
    count 0 is one chunk of zero rows."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    parts = [codec.sample(root_conditioning(store, min(SAMPLE_CHUNK, count - start)), rng)[0]
             for start in range(0, max(count, 1), SAMPLE_CHUNK)]
    return parts[0] if len(parts) == 1 else concat_trees(parts)
