"""Root-level codec behavior: batch loss, sampling, exact enumeration."""

import importlib
import threading

import numpy as np
import pytest

from nestgen.autodiff import Tape
from nestgen.batches import LeafBatch, n_rows, take
from nestgen.codecs import base
from nestgen.codecs.composites import ListCodec, StructCodec
from nestgen.codecs.base import (pass_losses, per_example_gradients,
                                 root_conditioning, sample_rows, train_step)
from nestgen.codecs.exact import batch_from_values, enumerate_outcomes, joint_table
from nestgen.optim import Adam
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema

from conftest import ForcedOrder, assert_offsets, example_blocks, forward_loss


def compiled(doc, width=8, blocks=1, heads=2, seed=0):
    return compile_schema(parse_schema(doc), width=width, blocks=blocks,
                          heads=heads, seed=seed)


CAT4 = {"type": "enum", "name": "x", "cardinality": 4}
PAIR = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 2},
    {"name": "b", "type": "enum", "cardinality": 3}]}
NESTED = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 2},
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 2,
                           "items": {"type": "enum", "name": "v",
                                     "cardinality": 2}}}]}


def test_identical_rows_average_to_single_row_loss():
    codec, store = compiled(PAIR, seed=1)
    one = {"a": LeafBatch(np.array([1])), "b": LeafBatch(np.array([2]))}
    from nestgen.batches import StructBatch
    single = forward_loss(codec, store, StructBatch(one))
    four = StructBatch({k: LeafBatch(np.repeat(v.codes, 4)) for k, v in one.items()})
    assert forward_loss(codec, store, four) == single


def test_single_category_root_loss_is_zero():
    codec, store = compiled({"type": "enum", "name": "x", "cardinality": 1})
    batch = LeafBatch(np.zeros(17, dtype=np.int64))
    assert forward_loss(codec, store, batch) == 0.0
    loss, grads = train_step(codec, store, batch)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_root_conditioning_is_fixed_and_nonzero():
    codec, store = compiled(CAT4, seed=3)
    cond = root_conditioning(store, 5)
    assert cond.data.shape == (5, 8)
    assert np.any(cond.data != 0.0)
    assert np.array_equal(cond.data, np.tile(cond.data[0], (5, 1)))
    again = root_conditioning(store, 2)
    assert np.array_equal(again.data, cond.data[:2])


def test_root_conditioning_needs_the_constant():
    codec, _ = compiled(CAT4, seed=3)
    bare = ParamStore()
    with pytest.raises(ValueError, match="no c0 vector"):
        root_conditioning(bare, 5)
    with pytest.raises(ValueError, match="no c0 vector"):
        sample_rows(codec, bare, 2, np.random.default_rng(0))


def test_enumeration_sums_to_one_before_and_after_training():
    rng = np.random.default_rng(7)
    for doc in (CAT4, PAIR, NESTED):
        codec, store = compiled(doc, seed=11)
        _, probs = joint_table(codec, store)
        assert abs(probs.sum() - 1.0) < 1e-9
        # a few optimizer steps must not break normalization
        opt = Adam(lr=0.01)
        outcomes = enumerate_outcomes(codec)
        batch = batch_from_values(codec, [outcomes[i] for i in
                                          rng.integers(0, len(outcomes), 32)])
        for _ in range(5):
            _, grads = train_step(codec, store, batch)
            opt.step(store, grads)
        _, probs = joint_table(codec, store)
        assert abs(probs.sum() - 1.0) < 1e-9


def assert_packed(codec, values, tree):
    """tree packs `values` as int64 codes, each list as its lengths plus
    its elements end to end, at every depth."""
    if isinstance(codec, StructCodec):
        for name, child in zip(codec.names, codec.children()):
            assert_packed(child, [v[name] for v in values], tree.fields[name])
    elif isinstance(codec, ListCodec):
        assert tree.lengths.dtype == np.int64
        assert tree.lengths.tolist() == [len(v) for v in values]
        assert_packed(codec.value_codec, [e for v in values for e in v], tree.values)
    else:
        assert tree.codes.dtype == np.int64 and tree.codes.tolist() == list(values)


STRUCT_LIST = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 2},
    {"name": "l", "type": "array", "max_len": 3,
     "items": {"type": "record", "name": "t", "fields": [
         {"name": "place", "type": "enum", "cardinality": 3},
         {"name": "price", "type": "float", "bins": 4}]}}]}
LIST_OF_LISTS = {"type": "record", "name": "r", "fields": [
    {"name": "l", "type": "array", "max_len": 2,
     "items": {"type": "array", "name": "inner", "max_len": 3,
               "items": {"type": "enum", "name": "v", "cardinality": 2}}}]}


@pytest.mark.parametrize("doc, values", [
    (STRUCT_LIST, [{"a": 1, "l": [{"place": 2, "price": 3}]},
                   {"a": 0, "l": []},
                   {"a": 1, "l": [{"place": 1, "price": 1}, {"place": 0, "price": 2},
                                  {"place": 2, "price": 0}]}]),
    (LIST_OF_LISTS, [{"l": [[1], [0, 1, 1]]}, {"l": [[]]}, {"l": []}]),
    (LIST_OF_LISTS, [{"l": []}, {"l": []}]),
    (NESTED, None),
    (LIST_OF_LISTS, None),
], ids=["struct_with_numeric", "list_of_lists", "all_empty", "enumerated_nested",
        "enumerated_list_of_lists"])
def test_batch_from_values_packs_elements_end_to_end(doc, values):
    # values None: every outcome the codec enumerates
    codec, store = compiled(doc)
    values = enumerate_outcomes(codec) if values is None else values
    batch = batch_from_values(codec, values)
    assert_packed(codec, values, batch)
    assert_offsets(batch)
    assert np.isfinite(forward_loss(codec, store, batch))


def test_enumeration_covers_list_outcomes():
    codec, _ = compiled(NESTED, seed=2)
    outcomes = enumerate_outcomes(codec)
    # 2 values of a x (empty list + 2 lists of len 1 + 4 of len 2)
    assert len(outcomes) == 2 * (1 + 2 + 4)
    assert {"a": 0, "l": []} in outcomes
    assert {"a": 1, "l": [1, 1]} in outcomes


def test_trained_frequencies_match_enumerated_law():
    # train a 4-category root to (0.4, 0.3, 0.2, 0.1), then check samples
    # against the enumerated joint, which is the exact sampling law
    codec, store = compiled(CAT4, seed=5)
    counts = [40, 30, 20, 10]
    codes = np.repeat(np.arange(4), counts)
    batch = LeafBatch(codes)
    opt = Adam(lr=0.05)
    for _ in range(300):
        _, grads = train_step(codec, store, batch)
        opt.step(store, grads)
    _, probs = joint_table(codec, store)
    target = np.array([0.4, 0.3, 0.2, 0.1])
    assert 0.5 * np.abs(probs - target).sum() < 0.02

    tree = sample_rows(codec, store, 100_000, np.random.default_rng(6))
    freq = np.bincount(tree.codes, minlength=4) / 100_000
    assert 0.5 * np.abs(freq - probs).sum() < 0.02


def test_rng_none_means_identity_order():
    doc = {"type": "record", "name": "r", "shuffled": True, "fields": [
        {"name": "a", "type": "enum", "cardinality": 2},
        {"name": "b", "type": "enum", "cardinality": 2},
        {"name": "c", "type": "enum", "cardinality": 2}]}
    codec, store = compiled(doc, seed=8)
    from nestgen.batches import StructBatch
    batch = StructBatch({k: LeafBatch(np.array([0, 1, 1]))
                         for k in ("a", "b", "c")})
    plain = pass_losses(codec, store, batch)[0].data
    again = pass_losses(codec, store, batch)[0].data
    forced = pass_losses(codec, store, batch, rng=ForcedOrder(sigma=(0, 1, 2)))[0].data
    assert np.array_equal(plain, again)
    assert np.array_equal(plain, forced)
    drawn = pass_losses(codec, store, batch, rng=np.random.default_rng(1))[0].data
    assert drawn.shape == plain.shape


def test_sample_rows_chunks_and_reproduces(monkeypatch):
    codec, store = compiled(NESTED, seed=10)
    monkeypatch.setattr(base, "SAMPLE_CHUNK", 3)
    a = sample_rows(codec, store, 7, np.random.default_rng(3))
    b = sample_rows(codec, store, 7, np.random.default_rng(3))
    assert n_rows(a) == 7
    assert np.array_equal(a.fields["a"].codes, b.fields["a"].codes)
    assert np.array_equal(a.fields["l"].lengths, b.fields["l"].lengths)
    assert a.fields["l"].lengths.max() <= 2


def test_sample_rows_count_zero_is_a_sample_of_zero_rows():
    codec, store = compiled(NESTED, seed=10)
    tree = sample_rows(codec, store, 0, np.random.default_rng(3))
    ref, _ = codec.sample(root_conditioning(store, 0), np.random.default_rng(3))
    assert n_rows(tree) == 0
    assert tree.fields["a"].codes.shape == (0,)
    assert tree.fields["l"].values.codes.shape == (0,)
    for got, want in [(tree.fields["a"].codes, ref.fields["a"].codes),
                      (tree.fields["l"].lengths, ref.fields["l"].lengths),
                      (tree.fields["l"].values.codes, ref.fields["l"].values.codes)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sample_rows_negative_count_is_refused():
    codec, store = compiled(NESTED, seed=10)
    with pytest.raises(ValueError, match="count"):
        sample_rows(codec, store, -1, np.random.default_rng(3))


def test_sampling_in_another_thread_leaves_open_tape_alone():
    codec, store = compiled(NESTED, seed=10)
    done = []

    def sample_elsewhere():
        sample_rows(codec, store, 5, np.random.default_rng(4))
        done.append(True)

    with Tape() as tape:
        pass_losses(codec, store, sample_rows(codec, store, 3, np.random.default_rng(5)))
        before = len(tape._ops)
        worker = threading.Thread(target=sample_elsewhere)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and done == [True]
        assert len(tape._ops) == before > 0


def test_per_example_gradients_average_to_batch_gradient():
    codec, store = compiled(PAIR, seed=12)
    from nestgen.batches import StructBatch
    batch = StructBatch({"a": LeafBatch(np.array([0, 1, 0, 1])),
                         "b": LeafBatch(np.array([2, 0, 1, 1]))})
    losses, ex = per_example_gradients(codec, store, batch)
    per_row = pass_losses(codec, store, batch)[0].data
    np.testing.assert_allclose(losses, per_row, rtol=1e-12)
    _, batch_grads = train_step(codec, store, batch)
    batch_grads = store.views(batch_grads)
    # one (B, *shape) block per parameter, in store order
    assert [b.shape[1:] for b in example_blocks(ex)] == [g.shape for g in batch_grads.values()]
    for (path, g), block in zip(batch_grads.items(), example_blocks(ex)):
        np.testing.assert_allclose(block.mean(axis=0), g, rtol=1e-9, atol=1e-12,
                                   err_msg=path)


def test_take_rows_of_batch_tree():
    codec, store = compiled(NESTED, seed=13)
    tree = sample_rows(codec, store, 6, np.random.default_rng(1))
    sub = take(tree, np.array([4, 0, 2]))
    assert n_rows(sub) == 3
    assert np.array_equal(sub.fields["a"].codes, tree.fields["a"].codes[[4, 0, 2]])
    assert np.array_equal(sub.fields["l"].lengths, tree.fields["l"].lengths[[4, 0, 2]])


@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_loss_raises():
    codec, store = compiled(CAT4, seed=14)
    store["x/W"].data[:] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite"):
        train_step(codec, store, LeafBatch(np.array([0, 1])))


def test_enumerate_outcomes_refuses_more_than_limit():
    codec, _ = compiled(PAIR)
    assert len(enumerate_outcomes(codec, limit=6)) == 6
    with pytest.raises(ValueError, match="r/b: more than 2 outcomes"):
        enumerate_outcomes(codec, limit=2)
    with pytest.raises(ValueError, match="r: more than 5 outcomes"):
        enumerate_outcomes(codec, limit=5)


@pytest.mark.parametrize("module", ["nestgen", "nestgen.codecs"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
