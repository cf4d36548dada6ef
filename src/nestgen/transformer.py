"""Causal self-attention over short field sequences.

The default block is deliberately reduced: multi-head causal attention plus a
residual connection and nothing else. No layer norm, no feed-forward, no
positional encoding. Sequences here are a handful of field embeddings, not
natural-language tokens, and position information already arrives through the
residual stream (position k's output always contains its own input embedding).

Training runs `__call__` over whole sequences. Sampling grows a sequence one
position at a time with `step`, which keeps every block's keys and values in
a `KVCache` and computes only the new position. Both run the same `_block`,
one `ad.attention` op. Sampling runs off the tape, so the cache holds plain
arrays. The cached step is exact because attention is causal, so a
position's output depends only on its prefix. `KVCache.take` drops batch
rows that need no further steps.

Causality is the only mask, applied in `ad.attention`: masked scores are
filled with the most negative finite float before the softmax, so exp()
underflows to exactly 0.0 and their gradient is exactly 0.0. A list's
padding comes after its elements, so causality keeps it out of every output
the list uses, and the list scores only its elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParamStore


@dataclass(frozen=True)
class TransformerConfig:
    width: int = 64
    blocks: int = 2
    heads: int = 8

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.blocks < 1:
            raise ValueError("need at least one block")


class AttentionStack:
    """Parameters and forward pass for a stack of attention blocks."""

    def __init__(self, cfg: TransformerConfig, store: ParamStore, prefix: str,
                 rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.width
        # each block's weights are `ad.attention`'s keyword arguments
        self.blocks = [{n: store.allocate(f"{prefix}/b{i}/{n}", (d, d), rng)
                        for n in ("wq", "wk", "wv", "wo")} for i in range(cfg.blocks)]

    def __call__(self, x: Tensor) -> Tensor:
        """Run the stack on x of shape (B, L, d). Position k sees positions
        <= k only."""
        if x.data.ndim != 3 or x.data.shape[2] != self.cfg.width:
            raise ValueError(
                f"input of shape {x.data.shape} does not match model width {self.cfg.width}")
        if x.data.shape[1] == 0:
            raise ValueError("attention needs at least one position")
        for blk in self.blocks:
            # keep no reference to this block's keys and values: outside a
            # tape they are freed before the next block allocates its own
            x = self._block(blk, x)[0]
        return x

    def step(self, x_new: Tensor, cache: KVCache) -> Tensor:
        """Output at the next position of a causal sequence, shape (B, d).

        x_new (B, d) is the input at that position; cache holds the keys and
        values of every earlier position and gains this one's. Every earlier
        position is attended, so this equals the last row of __call__ on the
        whole prefix.
        """
        B, d = x_new.data.shape
        x = ad.reshape(x_new, (B, 1, d))
        kv = []
        for i, blk in enumerate(self.blocks):
            x, kv_i = self._block(blk, x, cache.kv[i] if cache.kv else None)
            kv.append(kv_i)
        cache.kv = kv
        return ad.reshape(x, (B, d))

    def _block(self, blk, x: Tensor, past=None):
        """One block on x (B, L, d): `ad.attention` with this block's weights."""
        return ad.attention(x, **blk, heads=self.cfg.heads, past=past)


class KVCache:
    """Keys and values of the positions an AttentionStack has stepped over:
    one (keys, values) pair of (B, H, t, dh) arrays per block, empty before
    the first step."""

    def __init__(self, kv=None):
        self.kv = kv if kv is not None else []

    def take(self, rows) -> "KVCache":
        """The cache restricted to (or reordered by) the given batch rows."""
        return KVCache([(k[rows], v[rows]) for k, v in self.kv])
