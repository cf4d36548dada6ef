"""Composite codecs: structs over named fields and variable-length lists.

Child observations are encoded bottom-up into fixed-width embeddings; a
causal attention stack turns the embedding sequence into running digests, and
a second stack turns (conditioning, digests) into one conditioning vector per
child, against which the child's scorer scores it in the same walk (a list
scores its length first). `encode` returns the scorer as a closure over what
it computed, its digests and its children's scorers, down to the leaves',
which close over their codes, so scoring never sees the observation. A composite has the three duties of every codec: encode, score
and sample. Optionally the order children enter the digests is shuffled per
pass, which trains the model to be usable under any autoregressive
factorisation of the node. Orders come only from the `rng` given to
`encode`, and each decoding pass encodes the batch again. A composite draws
its order before its children encode: a struct takes `rng.permutation(n)`,
a list sorts `rng.random((B, max_len))` keys over each row's valid prefix.
It then encodes its children in that order, so a shuffled pass is a plain
pass over the reordered observation, bitwise, gradients included.

Indexing convention used throughout (0-based): for a struct with n fields in
order perm the encoder reads the embedding of field perm[k] at position k and
the decoder reads (conditioning, digest 0, ..., digest n-2), so decoder
output slot k conditions field perm[k]. A list batch holds its rows'
elements end to end (see `batches`); the list codec is the one place that
pads. It lays each row's elements out in a grid of P slots with one `take`,
reading element starts[b] + perm[b, i] at a valid slot (perm is the identity
unless the list is shuffled) and an appended `value_codec.zero_batch(1)` row
at a padded slot. Encoder position 0 is the length embedding and position
1+i the i-th value of the reordered row, and decoder output slot 0
conditions the length and slot 1+i that value. A row of length m uses
positions <= m only and its padding comes after them, so causal attention
keeps padding out of every output used, and the loss mask gives the padded
slots exactly zero loss and gradient. Every slot read is one `ad.index`: a
slot number drops the position axis, and a slice keeps it (an empty one is
a zero-length sequence).

Because padding is invisible and no op mixes the rows of different
examples, a list trains its batch in length groups (`length_groups`), and
each group is a plain padded grid over its rows, cut to the group's longest
list P: the value codec runs on (rows*P) grid slots, not (B*max_len), and
both stacks run at P. With two groups their outputs are put back in batch
order with `ad.index`. On the DP path each group sets its rows' example map
(`autodiff.example_rows`). A shuffled list draws its keys over the whole
(B, max_len) grid, so its orders do not depend on the grouping; shuffled
nodes inside the value codec draw once per group, after the list's keys.

Sampling walks the same order one slot at a time with cached attention
(`AttentionStack.step`): a decoder step on the conditioning gives slot 0;
then each slot samples its child, an encoder step on the child's embedding
gives the next digest, and a decoder step on that digest conditions the next
slot. Shuffled nodes sample in identity order. A list samples the lengths
first; element step i then runs only the rows whose length exceeds i, and a
row's embedding is the digest at its own length. The steps' draws are put
in row order with one `take`, so a sampled list holds its elements end to
end like any other.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..batches import LeafBatch, ListBatch, StructBatch, concat_trees, n_rows, take
from ..transformer import AttentionStack, KVCache, TransformerConfig
from .base import Codec
from .primitives import CategoricalCodec


class _Decoding:
    """Sampling state of one composite node: the K/V caches of its encoder
    and decoder stacks, and the latest encoder digest (the node's
    conditioning before the first draw), which is the decoder's next input."""

    def __init__(self, codec, cond):
        self.enc, self.dec = codec.enc, codec.dec
        self.enc_kv, self.dec_kv = KVCache(), KVCache()
        self.digest = ad.as_tensor(cond)

    def draw(self, child, rng):
        """Sample `child` in the next slot and append its embedding to the
        encoder sequence; returns the sampled batch."""
        x, e = child.sample(self.dec.step(self.digest, self.dec_kv), rng)
        self.digest = self.enc.step(e, self.enc_kv)
        return x

    def take(self, rows):
        """Keep only the given batch rows."""
        self.enc_kv = self.enc_kv.take(rows)
        self.dec_kv = self.dec_kv.take(rows)
        self.digest = ad.index(self.digest, rows)


def _level_nodes(codec, tree):
    """(codec, batch) of each leaf and list in `tree`, through structs but
    not into a list's elements."""
    if isinstance(codec, StructCodec):
        for name, child in zip(codec.names, codec.children()):
            if name in tree.fields:  # a missing field is the struct's error
                yield from _level_nodes(child, tree.fields[name])
    else:
        yield codec, tree


def length_groups(lengths):
    """Split batch rows by list length into at most two groups, each cut to
    P, its longest list (at least 1). The rows sorted by length are cut once,
    where the attention positions, the sum of rows*(P+1) over the groups,
    are fewest; if no cut gives fewer positions than one group, one group
    holds every row. Returns [(rows ascending, P)], shorter lists first."""
    B = lengths.shape[0]
    top = max(int(lengths.max(initial=0)), 1)
    s = np.maximum(np.sort(lengths), 1)
    k = np.arange(1, B)
    positions = k * (s[:-1] + 1) + (B - k) * (top + 1)
    if B < 2 or positions.min() >= B * (top + 1):
        return [(np.arange(B), top)]
    # the first minimum ends a run of equal lengths, so the cut is a length
    cut = int(s[np.argmin(positions)])
    short = lengths <= cut
    return [(np.flatnonzero(short), cut), (np.flatnonzero(~short), top)]


def _in_batch_order(parts, inverse):
    """Concatenate per-group rows and put them back in batch order."""
    return ad.index(ad.concat(parts, axis=0), inverse, unique=True)


class StructCodec(Codec):
    def __init__(self, path: str, names, children, tcfg: TransformerConfig,
                 store, rng, shuffled: bool = False):
        if len(names) != len(children) or not children:
            raise ValueError(f"{path}: struct needs at least one named child")
        self.path = path
        self.names = list(names)
        self._children = list(children)
        self.shuffled = shuffled
        self.width = tcfg.width
        self.enc = AttentionStack(tcfg, store, f"{path}/~enc", rng)
        self.dec = AttentionStack(tcfg, store, f"{path}/~dec", rng)

    def children(self):
        return self._children

    def _draw_perm(self, rng):
        if self.shuffled and rng is not None:
            return tuple(int(i) for i in rng.permutation(len(self._children)))
        return tuple(range(len(self._children)))

    def encode(self, x: StructBatch, rng=None):
        missing = [n for n in self.names if n not in x.fields]
        if missing:
            raise ValueError(f"{self.path}: batch is missing fields {missing}")
        embs, scores = zip(*(self._children[k].encode(x.fields[self.names[k]], rng=rng)
                             for k in self._draw_perm(rng)))
        digests = self.enc(ad.stack_columns(embs))

        def score(cond):
            c_col = ad.reshape(cond, (cond.data.shape[0], 1, self.width))
            h = self.dec(ad.concat([c_col, ad.index(digests, np.s_[:, :-1])], axis=1))
            return reduce(ad.add, (s(ad.index(h, np.s_[:, k])) for k, s in enumerate(scores)))
        return ad.index(digests, np.s_[:, -1]), score

    def sample(self, cond, rng):
        dec = _Decoding(self, cond)
        out = {name: dec.draw(child, rng) for name, child in zip(self.names, self._children)}
        return StructBatch(out), dec.digest

    def zero_batch(self, n):
        return StructBatch({name: c.zero_batch(n)
                            for name, c in zip(self.names, self._children)})


class ListCodec(Codec):
    """Variable-length list: a categorical codec over lengths 0..max_len plus
    one value codec shared by all positions. Training splits the batch into
    at most two length groups (`length_groups`), each a padded grid over its
    rows at its own P, with a shuffled list's elements read in its order."""

    def __init__(self, path: str, value_codec: Codec, max_len: int,
                 tcfg: TransformerConfig, store, rng, shuffled: bool = False):
        if max_len < 1:
            raise ValueError(f"{path}: max_len must be >= 1")
        self.path = path
        self.value_codec = value_codec
        self.max_len = max_len
        self.shuffled = shuffled
        self.width = tcfg.width
        self.len_codec = CategoricalCodec(f"{path}/~len", max_len + 1,
                                          tcfg.width, store, rng)
        self.enc = AttentionStack(tcfg, store, f"{path}/~enc", rng)
        self.dec = AttentionStack(tcfg, store, f"{path}/~dec", rng)

    def children(self):
        return [self.len_codec, self.value_codec]

    def _check_counts(self, x):
        """Every leaf's codes and every list's lengths at the element level,
        through structs, have lengths.sum() rows, and so, against its own
        lengths, has each nested list's element level."""
        count = int(np.sum(x.lengths))
        for child, sub in _level_nodes(self.value_codec, x.values):
            if n_rows(sub) != count:
                raise ValueError(f"{self.path}: {child.path} has {n_rows(sub)} elements, "
                                 f"the lengths sum to {count}")
            if isinstance(child, ListCodec):
                child._check_counts(sub)

    def _draw_perm(self, rng, lengths):
        """Per-row (B, max_len) permutation of the valid prefix; padded slots
        stay put. Returns None when no shuffling applies."""
        if self.shuffled and rng is not None:
            B, P = lengths.shape[0], self.max_len
            keys = np.where(np.arange(P) < lengths[:, None], rng.random((B, P)), 1.0 + np.arange(P))
            return np.argsort(keys, axis=1).astype(np.int64)
        return None

    def encode(self, x: ListBatch, rng=None):
        lengths = np.asarray(x.lengths, dtype=np.int64)
        if lengths.min(initial=0) < 0 or lengths.max(initial=0) > self.max_len:
            raise ValueError(f"{self.path}: length out of range 0..{self.max_len}")
        self._check_counts(x)
        # the order's keys cover the whole (B, max_len) grid, so they do not
        # depend on the grouping
        perm = self._draw_perm(rng, lengths)
        # every padded grid slot reads the appended zero element, the last row
        values = concat_trees([x.values, self.value_codec.zero_batch(1)])
        starts = np.cumsum(lengths) - lengths
        groups = length_groups(lengths)
        parts = [self._encode_group(lengths, starts, perm, values, rows, P, rng)
                 for rows, P in groups]
        if len(parts) == 1:
            return parts[0]
        embs, scores = zip(*parts)
        inverse = np.argsort(np.concatenate([rows for rows, _ in groups]))

        def score(cond):
            return _in_batch_order([s(ad.index(cond, rows, unique=True))
                                    for s, (rows, _) in zip(scores, groups)], inverse)
        return _in_batch_order(embs, inverse), score

    def _encode_group(self, lengths, starts, perm, values, rows, P, rng):
        """A plain padded grid over batch rows `rows`, each cut to P: returns
        (embedding, score) of those rows."""
        n, m = rows.size, lengths[rows]
        mask = np.arange(P) < m[:, None]  # True where a slot holds an element
        pos = np.arange(P) if perm is None else perm[rows, :P]
        grid = np.where(mask, starts[rows, None] + pos, n_rows(values) - 1)
        with ad.example_rows(rows):
            e_len, len_score = self.len_codec.encode(LeafBatch(m))
        with ad.example_rows(rows, P):
            ev, val_score = self.value_codec.encode(take(values, grid.ravel()), rng=rng)
        seq = ad.concat([ad.reshape(e_len, (n, 1, self.width)),
                         ad.reshape(ev, (n, P, self.width))], axis=1)
        with ad.example_rows(rows):
            digests = self.enc(seq)

        def score(cond):
            # length loss plus the sum over valid element positions, unnormalised:
            # a longer list is a larger observation and weighs accordingly
            dec_in = ad.concat([ad.reshape(cond, (n, 1, self.width)),
                                ad.index(digests, np.s_[:, :P])], axis=1)
            with ad.example_rows(rows):
                h = self.dec(dec_in)
                len_loss = len_score(ad.index(h, np.s_[:, 0]))
            with ad.example_rows(rows, P):
                v = val_score(ad.reshape(ad.index(h, np.s_[:, 1:]), (n * P, self.width)))
            v = ad.mul_const(ad.reshape(v, (n, P)), mask.astype(np.float64))
            return ad.add(len_loss, ad.sum_axis(v, 1))
        return ad.index(digests, (np.arange(n), m), unique=True), score

    def sample(self, cond, rng):
        B = cond.shape[0]
        dec = _Decoding(self, cond)
        m = dec.draw(self.len_codec, rng).codes
        emb = dec.digest.data.copy()
        starts = np.cumsum(m) - m
        rows = np.arange(B)
        draws, dests = [], []
        for i in range(int(m.max(initial=0))):
            live = np.flatnonzero(m[rows] > i)
            if live.size < rows.size:
                rows = rows[live]
                dec.take(live)
            draws.append(dec.draw(self.value_codec, rng))
            dests.append(starts[rows] + i)
            # a row's last draw is at its own length, the digest it keeps
            emb[rows] = dec.digest.data
        if not draws:
            return ListBatch(m, self.value_codec.zero_batch(0)), Tensor(emb)
        dest = np.concatenate(dests)
        order = np.empty_like(dest)
        order[dest] = np.arange(dest.size)
        return ListBatch(m, take(concat_trees(draws), order)), Tensor(emb)

    def zero_batch(self, n):
        return ListBatch(np.zeros(n, dtype=np.int64), self.value_codec.zero_batch(0))
