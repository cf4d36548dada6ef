"""Batched per-example gradients (the DP path) against one train_step per
example, which stays here as the reference."""

import tracemalloc

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.batches import n_rows, take
from nestgen.codecs.base import per_example_gradients, train_step
from nestgen.codecs.composites import ListCodec, StructCodec, length_groups
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import DpConfig, dp_step
from nestgen.transformer import AttentionStack

from conftest import example_blocks, example_matrix, random_batch, random_schema_doc

STRUCT_LIST_STRUCT = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 3,
                           "items": {"type": "record", "name": "s", "fields": [
                               {"name": "b", "type": "enum", "cardinality": 2},
                               {"name": "c", "type": "long", "bins": 3}]}}}]}
LIST_OF_LISTS = {"type": "record", "name": "r", "fields": [
    {"name": "ll", "type": {"type": "array", "name": "ll", "max_len": 3,
                            "items": {"type": "array", "name": "in", "max_len": 2,
                                      "items": {"type": "enum", "name": "v",
                                                "cardinality": 3}}}}]}
SHUFFLED = {"type": "record", "name": "r", "shuffled": True, "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 3, "shuffled": True,
                           "items": {"type": "record", "name": "s", "shuffled": True,
                                     "fields": [
                                         {"name": "b", "type": "enum", "cardinality": 2},
                                         {"name": "c", "type": "long", "bins": 3}]}}},
    {"name": "ll", "type": {"type": "array", "name": "ll", "max_len": 2,
                            "items": {"type": "array", "name": "in", "max_len": 2,
                                      "shuffled": True,
                                      "items": {"type": "enum", "name": "v",
                                                "cardinality": 3}}}}]}


# only the list is shuffled: its record elements are still encoded on every pass
SHUFFLED_LIST = {"type": "record", "name": "r", "fields": [
    STRUCT_LIST_STRUCT["fields"][0],
    {"name": "l", "type": {**STRUCT_LIST_STRUCT["fields"][1]["type"], "shuffled": True}}]}


def compiled(doc, seed=0):
    return compile_schema(parse_schema(doc), width=8, blocks=2, heads=2, seed=seed)


def loop_gradients(codec, store, batch, passes=1, rng_of=None):
    """The reference: one train_step per example, flattened in store order.
    rng_of(i), when given, is example i's shuffle rng."""
    n = n_rows(batch)
    losses = np.empty(n)
    grads = []
    for i in range(n):
        loss, g = train_step(codec, store, take(batch, np.array([i])),
                             rng=None if rng_of is None else rng_of(i), passes=passes)
        losses[i] = loss
        grads.append(g.copy())  # the flat gradient is in store order
    return losses, np.stack(grads)


class RowDraws:
    """A shuffle rng for the SHUFFLED_LIST schema, whose only draw per pass
    is the list's (B, max_len) keys: on the batch it records each draw, and
    `row(b)` replays row b's keys of each, so one example run alone is
    shuffled exactly as it was in the batch."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]

    def row(self, b):
        draws = iter(self.draws)

        class Replay:
            def random(self, shape):
                assert shape[0] == 1
                return next(draws)[b:b + 1]

        return Replay()


def _two_groups(codec, n):
    """Half the lists empty and half full: two length groups."""
    lengths = np.where(np.arange(n) < n // 2, 0, codec.max_len)
    assert len(length_groups(lengths)) == 2
    return lengths


def _full(codec, n):
    """Every list full, so each pass's order moves most of them."""
    return np.full(n, codec.max_len)


# (schema, batch size, the lists' lengths as `random_batch` picks them,
# passes); shuffled nodes keep their identity order except in the two-pass
# case
IDENTITY_CASES = (
    [pytest.param(random_schema_doc(np.random.default_rng(60 + i), max_depth=3), 6, None, 1,
                  id=f"random{i}") for i in range(6)]
    + [pytest.param(STRUCT_LIST_STRUCT, 6, None, 1, id="struct-list-struct"),
       pytest.param(LIST_OF_LISTS, 6, None, 1, id="list-of-lists"),
       pytest.param(SHUFFLED, 6, None, 1, id="shuffled"),
       pytest.param(STRUCT_LIST_STRUCT, 8, _two_groups, 1, id="two-length-groups"),
       pytest.param(SHUFFLED_LIST, 7, _full, 2, id="shuffled-list-two-passes"),
       pytest.param(STRUCT_LIST_STRUCT, 1, None, 1, id="one-example")])


@pytest.mark.parametrize("doc,B,pick,passes", IDENTITY_CASES)
def test_rows_match_train_step_per_example(doc, B, pick, passes):
    """Each example's gradient, built from the recorded reads, and the
    squared norms and clipped sums taken from the reads directly."""
    codec, store = compiled(doc, seed=61)
    batch = random_batch(codec, B, np.random.default_rng(62), pick)
    rng = rng_of = None
    if passes > 1:
        rng = RowDraws(B)
        rng_of = rng.row
    losses, ex = per_example_gradients(codec, store, batch, rng=rng, passes=passes)
    grads = example_matrix(ex)
    ref_losses, ref_grads = loop_gradients(codec, store, batch, passes=passes, rng_of=rng_of)
    if passes > 1:
        # the orders drawn for the batch are what the reference replays
        assert not np.allclose(ref_grads, loop_gradients(codec, store, batch, passes=passes)[1])
    assert grads.shape == (B, store.n_params())
    np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-10)
    assert np.any(grads != 0.0)
    ref_sq = (ref_grads * ref_grads).sum(axis=1)
    np.testing.assert_allclose(ex.sq_norms(), ref_sq, rtol=0, atol=1e-10)
    # clip at the median norm, so some examples are scaled and some are not
    c = np.minimum(1.0, np.median(np.sqrt(ref_sq)) / np.sqrt(ref_sq))
    sums = ex.clipped_sums(c)
    np.testing.assert_allclose(sums, (c[:, None] * ref_grads).sum(axis=0), rtol=0, atol=1e-10)
    if doc is STRUCT_LIST_STRUCT:
        # every leaf's W is read by encode (a row lookup) and by its scorer
        assert {read.a.ndim for read in ex.reads[store["r/a/W"]]} == {2, 3}


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_shuffled_passes_average_to_train_step(seed):
    codec, store = compiled(SHUFFLED, seed=seed)
    batch = random_batch(codec, 7, np.random.default_rng(seed))
    losses, ex = per_example_gradients(codec, store, batch,
                                       rng=np.random.default_rng(seed), passes=2)
    loss, ref = train_step(codec, store, batch, rng=np.random.default_rng(seed), passes=2)
    ref = store.views(ref)
    assert losses.mean() == pytest.approx(loss, rel=1e-12)
    for path, block in zip(store.paths(), example_blocks(ex)):
        np.testing.assert_allclose(block.mean(axis=0), ref[path], rtol=0, atol=1e-10,
                                   err_msg=path)


@pytest.mark.parametrize("doc,passes", [(STRUCT_LIST_STRUCT, 1), (SHUFFLED, 2),
                                        (SHUFFLED_LIST, 2)])
def test_batch_runs_through_each_stack_once_per_pass(monkeypatch, doc, passes):
    codec, store = compiled(doc, seed=80)
    call = AttentionStack.__call__
    counts = {}
    encodes = {}   # id(codec) -> one entry per encode call

    def counted(self, x):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return call(self, x)

    def spied(encode):
        def wrapper(self, x, rng=None):
            emb, score = encode(self, x, rng=rng)
            groups = length_groups(x.lengths) if isinstance(self, ListCodec) else None
            encodes.setdefault(id(self), []).append((n_rows(x), groups, x))
            return emb, score
        return wrapper

    monkeypatch.setattr(AttentionStack, "__call__", counted)
    for cls in (StructCodec, ListCodec):
        monkeypatch.setattr(cls, "encode", spied(cls.encode))
    composites = [c for c in codec.walk() if hasattr(c, "enc")]

    def expected_counts():
        """Each stack runs once per batch it sees, and the root is encoded
        once per pass. A struct sees one batch per encode call; a list sees
        one per length group, and its value codec is encoded once per list
        encode."""
        runs = {}

        def visit(c, calls):
            if not hasattr(c, "enc"):
                return
            assert len(encodes[id(c)]) == calls, c.path
            batches = calls
            if isinstance(c, ListCodec):
                batches = 0
                for B, groups, x in encodes[id(c)]:
                    # the groups' rows partition the batch; each is cut to
                    # its longest list (at least 1), at most two groups
                    assert 1 <= len(groups) <= 2
                    rows = np.concatenate([r for r, _ in groups])
                    assert np.array_equal(np.sort(rows), np.arange(B)), c.path
                    for r, P in groups:
                        assert P == max(int(x.lengths[r].max(initial=0)), 1), c.path
                    batches += len(groups)
            runs[id(c)] = batches
            for child in c.children():
                visit(child, calls)

        visit(codec, passes)
        return {id(s): runs[id(c)] for c in composites for s in (c.enc, c.dec)}, runs

    for n in (1, 8):
        counts.clear()
        encodes.clear()
        batch = random_batch(codec, n, np.random.default_rng(n))
        per_example_gradients(codec, store, batch, rng=np.random.default_rng(0),
                              passes=passes)
        expected, runs = expected_counts()
        assert counts == expected
        lists = [c for c in composites if isinstance(c, ListCodec)]
        if n == 1:
            assert all(runs[id(c)] == passes for c in lists if c in codec.children())
        else:
            # a batch of 8 lengths in 0..max_len splits somewhere
            assert any(runs[id(c)] > len(encodes[id(c)]) for c in lists)
        # every pass sees the same batches: each list groups its rows alike
        for c in lists:
            per_pass = len(encodes[id(c)]) // passes
            calls = [[(r.tolist(), P) for r, P in g] for _, g, _ in encodes[id(c)]]
            assert calls == calls[:per_pass] * passes, c.path
        batched = dict(counts)
        counts.clear()
        train_step(codec, store, batch, rng=np.random.default_rng(0), passes=passes)
        assert counts == batched


_categorical_nll = ad.categorical_nll


@pytest.mark.parametrize("nll,message", [
    # the weight reaches a rule only through a reshape
    (lambda cond, w, codes: _categorical_nll(cond, ad.reshape(w, w.shape), codes),
     "not a parameter"),
    # the weight is also read by an op with no per-example rule
    (lambda cond, w, codes: ad.add(
        _categorical_nll(cond, w, codes),
        ad.index(ad.sum_axis(w, 1), codes)),
     "no per-example gradient rule"),
])
def test_gradients_outside_the_rules_are_refused(monkeypatch, nll, message):
    codec, store = compiled(STRUCT_LIST_STRUCT, seed=90)
    monkeypatch.setattr(ad, "categorical_nll", nll)
    batch = random_batch(codec, 3, np.random.default_rng(91))
    with pytest.raises(RuntimeError, match=message):
        per_example_gradients(codec, store, batch)


def _example_grads(build, params, B):
    """(B, *shape) gradients of the sum of build()'s output, per parameter,
    from one tape in per-example mode."""
    grads = ad.ExampleGrads(B, params)
    with Tape(per_example=grads) as tape:
        loss = ad.sum_all(build())
    tape.backward(loss)
    assert all(p.grad is None for p in params)
    return example_blocks(grads)


def _loop_grads(build_one, params, B):
    out = [[] for _ in params]
    for b in range(B):
        for p in params:
            p.grad = None
        with Tape() as tape:
            loss = ad.sum_all(build_one(b))
        tape.backward(loss)
        for slot, p in zip(out, params):
            slot.append(p.grad)
    return [np.stack(s) for s in out]


def test_op_rules_match_one_example_at_a_time():
    rng = np.random.default_rng(95)
    B, P, L, d, n = 3, 2, 4, 6, 5
    w = Tensor(rng.standard_normal((n, d)))
    table = Tensor(rng.standard_normal((7, d)))
    x = rng.standard_normal((B * P, L, d))
    idx = rng.integers(0, 7, size=(B * P, L))
    idx[0, :2] = 3   # repeated rows within one example
    codes = rng.integers(0, n, size=(B * P, L))
    firsts = rng.integers(0, 7, size=B * P)
    firsts[:2] = idx[0, 0]   # a table row both looked up and scored

    def build(rows):
        # each example's rows stay contiguous, so the flat (rows, d) leading
        # axis still splits into one run per example
        h = ad.add(Tensor(x[rows]), ad.gather_rows(table, idx[rows]))
        flat = ad.reshape(h, (-1, d))
        return ad.add(ad.sum_all(ad.categorical_nll(flat, w, codes[rows].reshape(-1))),
                      ad.sum_all(ad.categorical_nll(ad.index(h, np.s_[:, 0]), table,
                                                    firsts[rows])))

    params = [w, table]
    batched = _example_grads(lambda: build(slice(None)), params, B)
    looped = _loop_grads(lambda b: build(slice(b * P, (b + 1) * P)), params, B)
    for got, want in zip(batched, looped):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_gram_and_dense_norms_agree_on_every_parameter():
    forms = set()
    for doc in (STRUCT_LIST_STRUCT, LIST_OF_LISTS, SHUFFLED):
        codec, store = compiled(doc, seed=3)
        batch = random_batch(codec, 9, np.random.default_rng(4))
        _, ex = per_example_gradients(codec, store, batch, rng=np.random.default_rng(5),
                                      passes=2 if codec.has_shuffle() else 1)
        for path, p in store.items():
            if not ex.reads[p]:
                continue
            forms.add(ex.uses_gram(p))
            dense = ex.dense(p).reshape(9, -1)
            np.testing.assert_allclose(ex.gram_sq_norms(p), (dense * dense).sum(axis=1),
                                       rtol=1e-12, atol=1e-12, err_msg=path)
    # the cases reach both forms of the norm
    assert forms == {True, False}


def test_gram_norms_of_a_read_that_skips_examples():
    # one read whose rows belong to examples 0 and 2 only, two rows each:
    # example 1 has no gradient
    rng = np.random.default_rng(6)
    w = Tensor(rng.standard_normal((5, 4)))
    ex = ad.ExampleGrads(3, [w])
    with Tape(per_example=ex) as tape:
        with ad.example_rows(np.array([0, 0, 2, 2])):
            loss = ad.sum_all(ad.categorical_nll(Tensor(rng.standard_normal((4, 4))), w,
                                                 rng.integers(0, 5, size=4)))
    tape.backward(loss)
    assert ex.uses_gram(w)
    dense = ex.dense(w).reshape(3, -1)
    assert np.all(dense[1] == 0.0) and np.all(dense[[0, 2]] != 0.0)
    np.testing.assert_allclose(ex.gram_sq_norms(w), (dense * dense).sum(axis=1),
                               rtol=1e-12, atol=0)


def assert_norms_agree(ex, p, name):
    """Both norm forms of parameter p, and its dense gradients against the
    reads summed one row at a time (`example_blocks`), agree."""
    dense = ex.dense(p)
    ref = example_blocks(ex)[ex.params.index(p)]
    np.testing.assert_allclose(dense, ref, rtol=0, atol=1e-12, err_msg=name)
    flat = dense.reshape(ex.examples, -1)
    np.testing.assert_allclose(ex.gram_sq_norms(p), (flat * flat).sum(axis=1),
                               rtol=1e-12, atol=1e-12, err_msg=name)


def test_gram_norms_of_reads_whose_examples_own_several_rows():
    # examples 0, 1 and 2 own 3, 1 and 2 adjacent rows of a block, two
    # positions each, and a block nested in it repeats some of its rows again
    rng = np.random.default_rng(9)
    w, table = Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((7, 4)))
    ex = ad.ExampleGrads(3, [w, table])
    with Tape(per_example=ex) as tape:
        with ad.example_rows(np.array([0, 0, 0, 1, 2, 2])):
            h = ad.add(Tensor(rng.standard_normal((6, 2, 4))),
                       ad.gather_rows(table, rng.integers(0, 7, size=(6, 2))))
            loss = ad.sum_all(ad.categorical_nll(ad.reshape(h, (12, 4)), w,
                                                 rng.integers(0, 5, size=12)))
            with ad.example_rows(np.array([0, 0, 2, 3, 3, 3, 3, 5])):
                looked_up = ad.gather_rows(table, rng.integers(0, 7, size=8))
                loss = ad.add(loss, ad.sum_all(ad.categorical_nll(looked_up, w,
                                                                  rng.integers(0, 5, size=8))))
    tape.backward(loss)
    # reads are recorded in backward order: the nested block's first
    assert [read.span for read in ex.reads[w]] == [read.span for read in ex.reads[table]] == [4, 3]
    for p in (w, table):
        assert_norms_agree(ex, p, "")


def test_a_list_of_lists_takes_the_gram_form():
    # an inner list's rows are its enclosing list's elements, so an example
    # owns several rows of each of its length groups
    codec, store = compile_schema(parse_schema(LIST_OF_LISTS), width=32, blocks=1, heads=2,
                                  seed=11)
    batch = random_batch(codec, 6, np.random.default_rng(12),
                         pick=lambda c, n: np.full(n, c.max_len))
    _, ex = per_example_gradients(codec, store, batch)
    several = [path for path, p in store.items() if any(r.span > 1 for r in ex.reads[p])]
    assert "r/ll/in/~enc/b0/wq" in several
    assert any(ex.uses_gram(store[path]) for path in several)
    for path, p in store.items():
        assert_norms_agree(ex, p, path)


def test_cancelling_reads_give_a_zero_norm_not_nan():
    # each example reads w twice with contributions that cancel exactly, so
    # the Gram form's terms of both signs round to totals just below zero
    rng = np.random.default_rng(0)
    B = 64
    w = Tensor(np.zeros((8, 8)))
    ex = ad.ExampleGrads(B, [w])
    a, g = rng.standard_normal((B, 8)), rng.standard_normal((B, 8))
    ex.add(w, a, g)
    ex.add(w, -0.3 * a, g / 0.3)
    assert ex.uses_gram(w)
    assert np.any(ex.gram_sq_norms(w) < 0)
    assert np.all(ex.sq_norms() >= 0)
    mean = dp_step(ex, DpConfig(clip_norm=1.0, noise_multiplier=1.0), np.random.default_rng(1))
    assert np.all(np.isfinite(mean))


def test_gram_form_is_not_used_where_its_rows_outgrow_the_gradient():
    # a 5000-row table looked up 64 times per example: one-hot Gram rows
    # would be 64 / 32 times the dense (5000, 32) gradient
    rng = np.random.default_rng(7)
    table = Tensor(rng.standard_normal((5000, 32)))
    for per, gram in ((64, False), (2, True)):
        ex = ad.ExampleGrads(2, [table])
        with Tape(per_example=ex) as tape:
            loss = ad.sum_all(ad.gather_rows(table, rng.integers(0, 5000, size=(2, per))))
        tape.backward(loss)
        assert ex.uses_gram(table) is gram


def test_dp_step_allocates_no_per_example_matrix():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": f"f{i}", "type": "enum", "cardinality": 10} for i in range(4)]}
    codec, store = compile_schema(parse_schema(doc), width=64, blocks=2, heads=8, seed=0)
    B = 32
    matrix_bytes = B * store.n_params() * 8
    assert matrix_bytes >= 16e6
    batch = random_batch(codec, B, np.random.default_rng(0))
    dp = DpConfig(clip_norm=1e-3, noise_multiplier=1.0)
    tracemalloc.start()
    try:
        _, ex = per_example_gradients(codec, store, batch)
        dp_step(ex, dp, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2
