"""Composite codecs: structs over named fields and variable-length lists.

Child observations are encoded bottom-up into fixed-width embeddings; a
causal attention stack turns the embedding sequence into running digests, and
a second stack turns (conditioning, digests) into one conditioning vector per
child, against which the child's scorer scores it in the same walk (a list
scores its length first). `encode` returns the scorer as a closure over what
it computed, its digests and its children's scorers, down to the leaves',
which close over their codes, so scoring never sees the observation. A
composite has the three duties of every codec: encode, score
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
elements end to end (see `batches`), and a list's value codec encodes and
scores exactly those elements, once per pass, as rows of their list's
example (`autodiff.example_rows`); a shuffled list first reorders each
row's elements with one `take`. Only the stacks see padding: encoder
position 0 is the length embedding and position 1+i the row's i-th value
or, past its length, a zero row, and decoder output slot 0 conditions the
length and slot 1+i that value. A row of length m uses positions <= m only
and its padding comes after them, so causal attention keeps padding out of
every output used, and only the element slots' outputs reach the value
scorer, in element order. Every slot read is one `ad.index`: a slot number
drops the position axis, a slice keeps it (an empty one is a zero-length
sequence), and an array gathers rows.

Because padding is invisible and no op mixes the rows of different
examples, a list runs its stacks in length groups (`length_groups`), each
over its rows at its longest list P, not max_len, and puts their outputs
back in batch order. A shuffled list draws its keys over the whole
(B, max_len) grid before its value codec draws, so they do not depend on
the grouping.

Sampling walks the same order one slot at a time with cached attention
(`AttentionStack.step`): a decoder step on the conditioning gives slot 0;
then each slot samples its child, an encoder step on the child's embedding
gives the next digest, and a decoder step on that digest conditions the next
slot. Each stack's `KVCache` has one slot per step, n for a struct of n
fields and max_len + 1 for a list, and each step writes its keys and values
once, into its own slot. A cache's room starts at one slot and doubles when
it fills, so each slot is copied about once, and a list's caches follow the
lengths drawn, not max_len. Shuffled nodes sample in identity order. A list
samples the lengths first; element step i then runs only the rows whose
length exceeds i, so when rows finish, the caches keep only the others,
copying just their filled slots. A row's embedding is the digest at its own
length. The steps' draws are put in row order with one `take`, so a sampled
list holds its elements end to end like any other.
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
    and decoder stacks, `slots` positions each, and the latest encoder
    digest (the node's conditioning before the first draw), which is the
    decoder's next input."""

    def __init__(self, codec, cond, slots):
        self.enc, self.dec = codec.enc, codec.dec
        self.enc_kv, self.dec_kv = KVCache(slots), KVCache(slots)
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
        dec = _Decoding(self, cond, len(self._children))
        out = {name: dec.draw(child, rng) for name, child in zip(self.names, self._children)}
        return StructBatch(out), dec.digest


class ListCodec(Codec):
    """Variable-length list: a categorical codec over lengths 0..max_len plus
    one value codec, shared by all positions, that trains on exactly the
    elements; the stacks run on at most two padded `length_groups`."""

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
        B, starts = lengths.shape[0], np.cumsum(lengths) - lengths
        elements = np.repeat(np.arange(B), lengths)  # each element's row
        values, total = x.values, elements.size
        perm = self._draw_perm(rng, lengths)
        if perm is not None:  # the reordered row b's element i is starts[b] + perm[b, i]
            values = take(values, (starts[:, None] + perm)[np.arange(self.max_len) <
                                                           lengths[:, None]])
        with ad.example_rows(elements):
            ev, val_score = self.value_codec.encode(values, rng=rng)
        len_emb, len_score = self.len_codec.encode(LeafBatch(lengths))
        # each group's grid of element numbers, total at a padded slot; its
        # encoder input is one read of [length embeddings; elements; a zero row
        # for every padded slot], and `unique` drops that constant row's gradient
        table = ad.concat([len_emb, ev, np.zeros((1, self.width))], axis=0)
        groups = [(rows, np.where(np.arange(P) < lengths[rows, None],
                                  starts[rows, None] + np.arange(P), total))
                  for rows, P in length_groups(lengths)]
        parts = [self._encode_group(lengths[rows], ad.index(table, np.c_[rows, B + grid],
                                                            unique=True), rows)
                 for rows, grid in groups]
        inverse = np.argsort(np.concatenate([rows for rows, _ in groups]))  # to batch order
        # each element's place among the groups' element slots end to end
        slot = np.argsort(np.concatenate([grid[grid < total] for _, grid in groups]))

        def in_batch_order(group_rows):
            return ad.index(ad.concat(group_rows, axis=0), inverse, unique=True)

        def score(cond):
            # length loss plus the sum over the row's elements, unnormalised:
            # a longer list is a larger observation and weighs accordingly
            decoded = [decode(ad.index(cond, rows, unique=True))
                       for (rows, _), (_, decode) in zip(groups, parts)]
            length = len_score(in_batch_order([h0 for h0, _ in decoded]))
            with ad.example_rows(elements):
                v = val_score(ad.index(ad.concat([h for _, h in decoded], axis=0), slot,
                                       unique=True))
            terms = ad.concat([v, np.zeros(1)], axis=0)
            sums = [ad.sum_axis(ad.index(terms, grid, unique=True), 1) for _, grid in groups]
            return ad.add(length, in_batch_order(sums))
        return in_batch_order([e for e, _ in parts]), score

    def _encode_group(self, m, seq, rows):
        """Both stacks over batch rows `rows` of lengths m, whose encoder
        input is seq (n, P + 1, d): returns (embedding, decode), decode(cond)
        giving the decoder's slot-0 outputs, which condition the lengths, and
        its element slots' outputs."""
        n, P = m.size, seq.shape[1] - 1
        r, c = np.nonzero(np.arange(P) < m[:, None])  # each element's row and slot
        with ad.example_rows(rows):
            digests = self.enc(seq)

        def decode(cond):
            dec_in = ad.concat([ad.reshape(cond, (n, 1, self.width)),
                                ad.index(digests, np.s_[:, :P])], axis=1)
            with ad.example_rows(rows):
                h = self.dec(dec_in)
            # slot 0 is read as a copy: a view would keep all of h alive
            return ad.index(h, (np.arange(n), 0), unique=True), ad.index(h, (r, c + 1), unique=True)
        return ad.index(digests, (np.arange(n), m), unique=True), decode

    def sample(self, cond, rng):
        B = cond.shape[0]
        dec = _Decoding(self, cond, self.max_len + 1)
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
        if not draws:  # no element anywhere: the value codec samples zero rows
            values, _ = self.value_codec.sample(np.zeros((0, self.width)), rng)
            return ListBatch(m, values), Tensor(emb)
        dest = np.concatenate(dests)
        order = np.empty_like(dest)
        order[dest] = np.arange(dest.size)
        return ListBatch(m, take(concat_trees(draws), order)), Tensor(emb)
