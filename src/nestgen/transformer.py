"""Causal self-attention over short field sequences.

The default block is deliberately reduced: multi-head causal attention plus a
residual connection and nothing else. No layer norm, no feed-forward, no
positional encoding. Sequences here are a handful of field embeddings, not
natural-language tokens, and position information already arrives through the
residual stream (position k's output always contains its own input embedding).

Training runs `__call__` over whole sequences. Sampling grows a sequence one
position at a time with `step`, which computes only the new position against
the keys and values a `KVCache` holds for the earlier ones. Both run the
same `_block`, one `ad.attention` op. The cache knows its node's slot count
up front and holds one position-major array, of which each block's keys and
each block's values are a (room, B, d) view: a step writes its keys and
values into the next slot once, in place, and attends the filled slots
through strided views, with no concatenation. The room starts at one slot
and doubles when it fills, so each slot moves about once, and a list's
cache follows the lengths drawn, not the list's max_len.
Sampling runs off the tape, so the cache holds plain arrays. The cached
step is exact because attention is causal, so a position's output depends
only on its prefix. `KVCache.take` drops batch rows that need no further
steps, copying only the filled slots of the rows it keeps.

Causality is the only mask, applied in `ad.attention` without filling any
score: each row's max is taken over the keys it may attend, and after exp()
each masked weight is multiplied by a cached (L, T) 0/1 mask, so it is
exactly 0.0 and so is its gradient. A list's
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
            x = self._block(blk, x)
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
        for blk, past in zip(self.blocks, cache.advance(len(self.blocks), B, d)):
            x = self._block(blk, x, past)
        return ad.reshape(x, (B, d))

    def _block(self, blk, x: Tensor, past=None):
        """One block on x (B, L, d): `ad.attention` with this block's weights."""
        return ad.attention(x, **blk, heads=self.cfg.heads, past=past)


class KVCache:
    """Keys and values of the positions an AttentionStack has stepped over,
    for a sequence of at most `slots` positions, in one position-major
    (room, 2 * blocks, B, d) array: slot s holds block 0's keys and values,
    then block 1's, and so on, of position s. Its first `filled` slots are
    written. The first step allocates room for one slot; a step that finds
    the room full moves the filled slots into twice the room, never more
    than `slots`. So the cache holds at most about twice what it has
    stepped: a list, whose lengths are drawn at its first step, holds room
    for the lengths drawn, not for its max_len."""

    def __init__(self, slots: int):
        self.slots, self.filled, self.buf = slots, 0, None

    def advance(self, blocks: int, B: int, d: int):
        """Claim the next slot for a step of B rows: per block, (keys, values)
        views of shape (filled + 1, B, d) whose last slot the step writes."""
        if self.filled == self.slots:
            raise ValueError(f"KV cache is full: all {self.slots} slots are filled")
        if self.buf is None:
            self.buf = np.empty((1, 2 * blocks, B, d))
        elif self.filled == len(self.buf):
            buf = np.empty((self._next_room(),) + self.buf.shape[1:])
            buf[:self.filled] = self.buf
            self.buf = buf
        self.filled += 1
        kv = self.buf[:self.filled]
        return [(kv[:, 2 * i], kv[:, 2 * i + 1]) for i in range(blocks)]

    def take(self, rows) -> "KVCache":
        """The cache restricted to (or reordered by) the given batch rows,
        each in 0..B-1: one np.take copies the filled slots of those rows
        into a new tight (room, 2 * blocks, len(rows), d) array, with the
        room the next step needs. A row outside 0..B-1 is clamped into it,
        not refused: numpy's checked mode copies `out` through a buffer, at
        twice the cost, and every caller passes `np.flatnonzero` output or
        a permutation."""
        new = KVCache(self.slots)
        new.filled = t = self.filled
        if self.buf is not None:
            _, K, _, d = self.buf.shape
            new.buf = np.empty((self._next_room(), K, len(rows), d))
            np.take(self.buf[:t], rows, axis=2, out=new.buf[:t], mode="clip")
        return new

    def _next_room(self):
        """Room for one more step: the room there is, or twice it once the
        filled slots fill it, never more than `slots`."""
        room = len(self.buf)
        return room if self.filled < room else min(2 * room, self.slots)
