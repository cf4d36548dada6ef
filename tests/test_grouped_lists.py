"""Length-grouped list training against the padded scoring it replaced.

`PaddedListCodec` keeps the old `ListCodec` training path as the reference:
every row runs at max_len, the value codec on a full (B, max_len) grid that
the test lays out itself, and both stacks mask each row's padded keys
explicitly, through the tests' reference attention block. The package's
codec masks nothing but causally, runs each length group at its own length
and its value codec on exactly the elements, once per pass, so losses and
gradients must agree to rounding, on both the plain and the per-example
(DP) path."""

from contextlib import contextmanager

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.batches import LeafBatch, ListBatch, StructBatch, concat_trees, n_rows, take
from nestgen.codecs.base import per_example_gradients, train_step
from nestgen.codecs.composites import ListCodec, StructCodec, length_groups
from nestgen.schema import compile_schema, parse_schema

from conftest import example_matrix, random_batch, random_schema_doc
from reference_ops import attention_block

TOL = 1e-12


def masked_stack(stack, x, valid):
    """`stack` on x (B, L, d) through the reference block, where position k
    attends key j only if j <= k and valid[b, j]."""
    L = x.data.shape[1]
    allowed = np.tril(np.ones((L, L), dtype=bool))[None] & valid[:, None, :]
    for blk in stack.blocks:
        x = attention_block(blk, x, stack.cfg.heads, ~allowed[:, None])[0]
    return x


def zeros(codec, n):
    """An observation batch of n all-zero rows of codec's input shape: code
    0 at each leaf, length 0 at each list."""
    if isinstance(codec, StructCodec):
        return StructBatch({name: zeros(c, n) for name, c in zip(codec.names, codec.children())})
    if isinstance(codec, ListCodec):
        return ListBatch(np.zeros(n, dtype=np.int64), zeros(codec.value_codec, 0))
    return LeafBatch(np.zeros(n, dtype=np.int64))


class PaddedListCodec(ListCodec):
    """The padded list training path: one group of every row at max_len."""

    def encode(self, x, rng=None):
        lengths = np.asarray(x.lengths, dtype=np.int64)
        B, P = lengths.shape[0], self.max_len
        mask = np.arange(P)[None, :] < lengths[:, None]
        e_len, len_score = self.len_codec.encode(LeafBatch(lengths))
        # slot (b, i) holds row b's element i, or a zero element past its length
        values = concat_trees([x.values, zeros(self.value_codec, 1)])
        starts = np.cumsum(lengths) - lengths
        grid = np.where(mask, starts[:, None] + np.arange(P), n_rows(values) - 1)
        ev_flat, val_score = self.value_codec.encode(take(values, grid.ravel()), rng=rng)
        val_embs = ad.reshape(ev_flat, (B, P, self.width))
        perm = self._draw_perm(rng, lengths)
        ordered = val_embs if perm is None else ad.index(val_embs, (np.arange(B)[:, None], perm))
        seq = ad.concat([ad.reshape(e_len, (B, 1, self.width)), ordered], axis=1)
        valid = np.concatenate([np.ones((B, 1), dtype=bool), mask], axis=1)
        digests = masked_stack(self.enc, seq, valid)
        emb = ad.index(digests, (np.arange(B), lengths))

        def score(cond):
            rows = np.arange(B)[:, None]
            c_col = ad.reshape(cond, (B, 1, self.width))
            dec_in = ad.concat([c_col, ad.index(digests, np.s_[:, :P])], axis=1)
            pos = np.arange(P + 1)[None, :]
            valid = (pos <= lengths[:, None]) | (pos <= 1)
            # position 1 stays a key for an empty list
            h = masked_stack(self.dec, dec_in, valid)
            len_loss = len_score(ad.index(h, np.s_[:, 0]))
            slots = ad.index(h, np.s_[:, 1:])
            if perm is not None:
                slots = ad.index(slots, (rows, np.argsort(perm, axis=1)))
            v = val_score(ad.reshape(slots, (B * P, self.width)))
            v = ad.reshape(v, (B, P))
            if perm is not None:
                v = ad.index(v, (rows, perm))
            v = ad.mul_const(v, mask.astype(np.float64))
            return ad.add(len_loss, ad.sum_axis(v, 1))
        return emb, score


@contextmanager
def padded(codec):
    """Every list codec under `codec` trains on the padded path meanwhile."""
    lists = [c for c in codec.walk() if type(c) is ListCodec]
    for c in lists:
        c.__class__ = PaddedListCodec
    try:
        yield
    finally:
        for c in lists:
            c.__class__ = ListCodec


def enum(name, k=3):
    return {"name": name, "type": "enum", "cardinality": k}


def array(name, items, max_len, shuffled=False):
    return {"type": "array", "name": name, "max_len": max_len, "items": items,
            "shuffled": shuffled}


LIST_OF_LISTS = {"type": "record", "name": "r", "fields": [
    {"name": "ll", "type": array("ll", array("in", {"type": "enum", "name": "v",
                                                    "cardinality": 3}, 3), 4)}]}
STRUCT_WITH_LIST = {"type": "record", "name": "s", "fields": [
    enum("b", 2), {"name": "c", "type": "long", "bins": 3},
    {"name": "in", "type": array("in", {"type": "enum", "name": "v", "cardinality": 4}, 3)}]}
LIST_OF_STRUCTS = {"type": "record", "name": "r", "fields": [
    enum("a"), {"name": "l", "type": array("l", STRUCT_WITH_LIST, 5)}]}
# the shuffled nodes sit outside lists' value codecs, so both paths draw the
# same stream: the list's (B, max_len) keys, then the root's order
SHUFFLED = {"type": "record", "name": "r", "shuffled": True, "fields": [
    enum("a"), {"name": "l", "type": array("l", STRUCT_WITH_LIST, 5, shuffled=True)},
    {"name": "m", "type": array("m", {"type": "enum", "name": "v", "cardinality": 5}, 6,
                                shuffled=True)}]}

DOCS = {"list-of-lists": LIST_OF_LISTS, "list-of-structs": LIST_OF_STRUCTS,
        "shuffled": SHUFFLED}


def compiled(doc, seed=0):
    return compile_schema(parse_schema(doc), width=8, blocks=2, heads=2, seed=seed)


def batches(codec, B, rng):
    """Random lengths, then all-empty, all-full and single-length lists."""
    picks = {"random": None,
             "empty": lambda c, n: np.zeros(n, dtype=np.int64),
             "full": lambda c, n: np.full(n, c.max_len),
             "single": lambda c, n: np.full(n, (c.max_len + 1) // 2)}
    return {kind: random_batch(codec, B, rng, pick) for kind, pick in picks.items()}


def assert_same_training(codec, store, x, passes, seed):
    rng = lambda: np.random.default_rng(seed)  # noqa: E731
    loss, grads = train_step(codec, store, x, rng=rng(), passes=passes)
    grads = grads.copy()  # the next train_step refills the store's buffer
    losses, ex = per_example_gradients(codec, store, x, rng=rng(), passes=passes)
    matrix = example_matrix(ex)
    with padded(codec):
        ref_loss, ref_grads = train_step(codec, store, x, rng=rng(), passes=passes)
        ref_losses, ref_ex = per_example_gradients(codec, store, x, rng=rng(),
                                                   passes=passes)
        ref_matrix = example_matrix(ref_ex)
    assert abs(loss - ref_loss) <= TOL
    for path, sl in store.slices.items():
        np.testing.assert_allclose(grads[sl], ref_grads[sl], rtol=0, atol=TOL, err_msg=path)
    np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=TOL)
    np.testing.assert_allclose(matrix, ref_matrix, rtol=0, atol=TOL)
    assert np.any(matrix != 0.0)


def split_lists(codec, x):
    """How many list nodes split their lists into two length groups: a list
    over its batch rows, a nested one over its enclosing list's elements."""
    if isinstance(x, LeafBatch):
        return 0
    if isinstance(x, StructBatch):
        return sum(split_lists(c, v) for c, v in zip(codec.children(), x.fields.values()))
    inner = split_lists(codec.value_codec, x.values)
    return inner + (len(length_groups(np.asarray(x.lengths))) > 1)


@pytest.mark.parametrize("name", sorted(DOCS))
@pytest.mark.parametrize("B", [1, 9])
def test_grouped_training_matches_padded(name, B):
    doc = DOCS[name]
    passes = 2 if name == "shuffled" else 1
    codec, store = compiled(doc, seed=B)
    for kind, x in batches(codec, B, np.random.default_rng(100 + B)).items():
        if kind == "random" and B > 1:
            assert split_lists(codec, x) > 0  # the case really splits
        assert_same_training(codec, store, x, passes, seed=B)


@pytest.mark.parametrize("case", range(6))
def test_random_schemas_match_padded(case):
    while True:
        rng = np.random.default_rng(300 + case)
        doc = random_schema_doc(rng, max_depth=3, shuffle_ok=False)
        codec, store = compiled(doc, seed=case)
        if any(isinstance(c, ListCodec) for c in codec.walk()):
            break
        case += 100
    assert_same_training(codec, store, random_batch(codec, 7, rng), 1, seed=case)


def value_encode_spy(codec):
    """Wraps every list codec under `codec` and its value codec's `encode`:
    returns {list path: [[elements, value rows, ...] per list encode]}, the
    list's lengths.sum() followed by the rows of each value encode it made."""
    calls = {}
    for lst in [c for c in codec.walk() if isinstance(c, ListCodec)]:
        log = calls.setdefault(lst.path, [])

        def list_spied(x, rng=None, encode=lst.encode, log=log):
            log.append([int(np.sum(x.lengths))])
            return encode(x, rng=rng)

        def value_spied(x, rng=None, encode=lst.value_codec.encode, log=log):
            log[-1].append(n_rows(x))
            return encode(x, rng=rng)
        lst.encode, lst.value_codec.encode = list_spied, value_spied
    return calls


DEPTH_1 = {"type": "record", "name": "r", "fields": [
    enum("a"), {"name": "l", "type": array("l", enum("v", 4), 6)}]}
DEPTH_3 = {"type": "record", "name": "r", "fields": [
    {"name": "l", "type": array("l", array("m", array("n", enum("v"), 3), 3), 4)}]}


@pytest.mark.parametrize("name", ["depth-1", "list-of-lists", "depth-3", "list-of-structs",
                                  "shuffled"])
def test_value_codec_encodes_exactly_the_elements_once_per_pass(name):
    doc = {"depth-1": DEPTH_1, "depth-3": DEPTH_3, **DOCS}[name]
    passes = 2 if name == "shuffled" else 1
    codec, store = compiled(doc, seed=7)
    x = random_batch(codec, 12, np.random.default_rng(8))
    assert split_lists(codec, x) > 0  # some list runs two length groups
    calls = value_encode_spy(codec)
    train_step(codec, store, x, rng=np.random.default_rng(9), passes=passes)
    per_example_gradients(codec, store, x, rng=np.random.default_rng(9), passes=passes)
    for field, child in zip(codec.names, codec.children()):
        if isinstance(child, ListCodec):  # encoded once per pass of each step
            assert calls[child.path] == [[int(x.fields[field].lengths.sum())] * 2] * 2 * passes
    for path, log in calls.items():
        assert log and all(entry == [entry[0]] * 2 for entry in log), path


def test_length_groups_take_the_cheapest_cut():
    rng = np.random.default_rng(5)
    for _ in range(200):
        B = int(rng.integers(0, 12))
        top = int(rng.integers(1, 9))
        lengths = rng.integers(0, top + 1, size=B)
        groups = length_groups(lengths)
        rows = np.concatenate([r for r, _ in groups])
        assert np.array_equal(np.sort(rows), np.arange(B))
        for r, P in groups:
            assert np.all(np.diff(r) > 0)
            assert P == max(int(lengths[r].max(initial=0)), 1)
        positions = sum(r.size * (P + 1) for r, P in groups)
        # brute force over every cut of the rows sorted by length
        s = np.maximum(np.sort(lengths), 1)
        one = B * (max(int(lengths.max(initial=0)), 1) + 1)
        best = min([one] + [k * (s[k - 1] + 1) + (B - k) * (s[-1] + 1) for k in range(1, B)])
        assert positions == best
        assert len(groups) == 1 or positions < one
