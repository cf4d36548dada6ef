"""Struct and list codecs: causality, masking, shuffling, sampling."""

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.batches import LeafBatch, ListBatch, StructBatch, n_rows
from nestgen.codecs.base import pass_losses, root_conditioning, sample_rows, train_step
from nestgen.codecs.composites import ListCodec, StructCodec, length_groups
from nestgen.codecs.primitives import CategoricalCodec, NumericalCodec, QuantileTable
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema
from nestgen.transformer import AttentionStack, KVCache, TransformerConfig

from conftest import (ForcedOrder, LeafSpy, RecordingRng, assert_offsets, attach_tables,
                      digest_spy, forward_loss, loss_gradients, padded_grids, random_batch,
                      random_schema_doc, training_signal)


def bare_store(width=8):
    """A store for codecs built by hand, conditioning the root on zeros."""
    store = ParamStore()
    store.c0 = np.zeros(width)
    return store


def flat_struct(cards, width=8, shuffled=False, seed=0, path="s"):
    """Struct of categorical children with the given cardinalities."""
    store = bare_store(width)
    rng = np.random.default_rng(seed)
    tcfg = TransformerConfig(width=width, blocks=1, heads=2)
    kids = [CategoricalCodec(f"{path}/f{i}", c, width, store, rng)
            for i, c in enumerate(cards)]
    codec = StructCodec(path, [f"f{i}" for i in range(len(cards))], kids,
                        tcfg, store, rng, shuffled=shuffled)
    store.pack()
    return codec, store


def cat_list(card, max_len, width=8, shuffled=False, seed=0, path="l"):
    """List of a single categorical value codec."""
    store = bare_store(width)
    rng = np.random.default_rng(seed)
    tcfg = TransformerConfig(width=width, blocks=1, heads=2)
    val = CategoricalCodec(f"{path}/item", card, width, store, rng)
    codec = ListCodec(path, val, max_len, tcfg, store, rng, shuffled=shuffled)
    store.pack()
    return codec, store


def struct_batch(codes):
    return StructBatch({f"f{i}": LeafBatch(np.asarray(c, dtype=np.int64))
                        for i, c in enumerate(codes)})


def list_batch(rows):
    """A batch of lists of categorical codes, one list per row."""
    return ListBatch(np.array([len(r) for r in rows], dtype=np.int64),
                     LeafBatch(np.array([v for r in rows for v in r], dtype=np.int64)))


def from_grid(lengths, grid, perm=None):
    """A list batch from (B, P) code grids, one leaf's or a dict of a
    struct's fields: each row's valid slots, read in perm order if given."""
    lengths = np.asarray(lengths, dtype=np.int64)

    def elements(codes):
        if perm is not None:
            codes = np.take_along_axis(codes, perm, axis=1)
        return LeafBatch(codes[np.arange(codes.shape[1]) < lengths[:, None]])
    values = (elements(grid) if isinstance(grid, np.ndarray)
              else StructBatch({k: elements(v) for k, v in grid.items()}))
    return ListBatch(lengths, values)


def zero_attention(store):
    for path in store.paths():
        if path.rsplit("/", 1)[-1] in ("wq", "wk", "wv", "wo"):
            store[path].data[:] = 0.0


class ZeroDraws:
    """rng stub whose uniforms are all zero (CDF sampling picks category 0)."""

    def random(self, n):
        return np.zeros(n)


# -- struct ------------------------------------------------------------------

def test_struct_needs_children():
    store = ParamStore()
    tcfg = TransformerConfig(width=8, blocks=1, heads=2)
    with pytest.raises(ValueError, match="child"):
        StructCodec("s", [], [], tcfg, store, np.random.default_rng(0))


def test_struct_missing_field_named():
    codec, _ = flat_struct([2, 3])
    with pytest.raises(ValueError, match="f1"):
        codec.encode(StructBatch({"f0": LeafBatch(np.array([0]))}))


def test_single_field_struct():
    codec, store = flat_struct([3])
    x = struct_batch([[0, 2, 1]])
    digests = digest_spy(codec)
    spy = LeafSpy(codec)
    emb, score = codec.encode(x)
    # the embedding is the one and only digest
    assert digests[0].data.shape == (3, 1, 8)
    assert np.array_equal(emb.data, digests[0].data[:, 0, :])
    # and the struct loss is exactly the child loss
    total = spy.score(root_conditioning(store, 3), score)
    assert np.array_equal(total.data, spy.terms["s/f0"].data)


def test_struct_encode_deterministic():
    codec, _ = flat_struct([2, 3, 4], seed=2)
    x = struct_batch([[0, 1], [2, 0], [3, 1]])
    digests = digest_spy(codec)
    emb1, _ = codec.encode(x)
    emb2, _ = codec.encode(x)
    assert np.array_equal(emb1.data, emb2.data)
    assert np.array_equal(digests[0].data, digests[1].data)


def test_struct_encoder_causality():
    # perturbing field j leaves digests 0..j-1 bit-identical
    codec, _ = flat_struct([4, 4, 4], seed=3)
    base = struct_batch([[1], [2], [3]])
    digests = digest_spy(codec)
    codec.encode(base)
    for j in range(3):
        codes = [[1], [2], [3]]
        codes[j] = [0]
        codec.encode(struct_batch(codes))
        d0, d1 = digests[0].data, digests[-1].data
        assert np.array_equal(d1[:, :j, :], d0[:, :j, :])
        assert not np.array_equal(d1[:, j:, :], d0[:, j:, :])


def test_struct_decode_causality():
    # the distribution for field k cannot see fields k..n-1
    codec, store = flat_struct([3, 3, 3, 3], seed=4)
    cond = root_conditioning(store, 2)
    base = [[0, 1], [1, 2], [2, 0], [1, 1]]
    spy = LeafSpy(codec)
    x0 = struct_batch(base)
    _, score0 = codec.encode(x0)
    spy.score(cond, score0)
    rep0 = spy.logits
    for k in range(4):
        codes = [list(c) for c in base]
        for j in range(k, 4):
            codes[j] = [(c + 1) % 3 for c in codes[j]]
        x = struct_batch(codes)
        _, score = codec.encode(x)
        spy.score(cond, score)
        rep = spy.logits
        # fields <= k all condition on the untouched prefix
        for i in range(k + 1):
            assert np.array_equal(rep[f"s/f{i}"], rep0[f"s/f{i}"]), (k, i)
        # while the perturbed field k feeds the very next distribution
        if k + 1 < 4:
            assert not np.array_equal(rep[f"s/f{k + 1}"], rep0[f"s/f{k + 1}"])


def test_first_field_depends_only_on_conditioning(rng):
    codec, store = flat_struct([3, 3], seed=5)
    cond = root_conditioning(store, 4)
    spy = LeafSpy(codec)
    x_a = struct_batch([[0, 0, 0, 0], [1, 1, 1, 1]])
    x_b = struct_batch([[2, 1, 0, 2], [0, 2, 2, 0]])
    _, score_a = codec.encode(x_a)
    _, score_b = codec.encode(x_b)
    spy.score(cond, score_a)
    d_a = spy.logits["s/f0"]
    spy.score(cond, score_b)
    d_b = spy.logits["s/f0"]
    assert np.array_equal(d_a, d_b)


def test_all_single_category_struct():
    codec, store = flat_struct([1, 1])
    x = struct_batch([[0, 0, 0], [0, 0, 0]])
    assert forward_loss(codec, store, x) == 0.0
    # and sampling is deterministic
    tree, _ = codec.sample(root_conditioning(store, 5), np.random.default_rng(0))
    assert np.array_equal(tree.fields["f0"].codes, np.zeros(5, dtype=np.int64))
    assert np.array_equal(tree.fields["f1"].codes, np.zeros(5, dtype=np.int64))


def test_struct_sample_reproducible(rng):
    codec, store = flat_struct([3, 4, 2], seed=6)
    cond = root_conditioning(store, 64)
    a, _ = codec.sample(cond, np.random.default_rng(7))
    b, _ = codec.sample(cond, np.random.default_rng(7))
    for name in codec.names:
        assert np.array_equal(a.fields[name].codes, b.fields[name].codes)


# -- struct shuffling ---------------------------------------------------------

def test_identity_permutation_equals_plain_pass():
    codec, store = flat_struct([3, 4, 2], shuffled=True, seed=9)
    x = struct_batch([[0, 1], [3, 2], [1, 0]])
    plain = forward_loss(codec, store, x)
    forced = forward_loss(codec, store, x, rng=ForcedOrder(sigma=(0, 1, 2)))
    assert plain == forced


def reordered_clone(codec, sigma):
    """A struct over the same children and attention stacks, children listed
    in sigma order (parameters fully shared with the original)."""
    clone = object.__new__(StructCodec)
    clone.path = codec.path
    clone.names = [codec.names[k] for k in sigma]
    clone._children = [codec.children()[k] for k in sigma]
    clone.shuffled = False
    clone.width = codec.width
    clone.enc = codec.enc
    clone.dec = codec.dec
    return clone


LISTS_IN_STRUCT = {"type": "record", "name": "s", "shuffled": True, "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "b", "type": "array", "max_len": 3, "shuffled": True,
     "items": {"type": "enum", "name": "i", "cardinality": 4}},
    {"name": "c", "type": "enum", "cardinality": 2},
    {"name": "d", "type": "array", "max_len": 4, "shuffled": True,
     "items": {"type": "enum", "name": "i", "cardinality": 5}}]}


def test_fixed_sigma_equals_reordered_codec():
    # criterion: a shuffled pass with fixed sigma must be bitwise equal to a
    # plain codec whose children were reordered by sigma
    codec, store = flat_struct([3, 4, 2, 5], shuffled=True, seed=10)
    x = struct_batch([[0, 1, 2], [3, 2, 1], [1, 0, 1], [4, 2, 0]])
    rng = np.random.default_rng(11)
    for _ in range(10):
        sigma = tuple(int(i) for i in rng.permutation(4))
        shuffled = pass_losses(codec, store, x, rng=ForcedOrder(sigma=sigma))[0]
        plain = pass_losses(reordered_clone(codec, sigma), store, x)[0]
        assert np.array_equal(shuffled.data, plain.data)
        for a, b in zip(training_signal(codec, store, x, lambda: ForcedOrder(sigma=sigma)),
                        training_signal(reordered_clone(codec, sigma), store, x)):
            assert np.array_equal(a, b)
    # shuffled lists in two fields draw their orders in sigma order, as the
    # reordered codec's fields do, so gradients match bitwise too
    codec, store = compile_schema(parse_schema(LISTS_IN_STRUCT), width=8, blocks=1,
                                  heads=2, seed=12)
    for seed in range(10):
        x = random_batch(codec, 6, np.random.default_rng(seed))
        sigma = tuple(int(i) for i in rng.permutation(4))
        shuffled = training_signal(codec, store, x, lambda: ForcedOrder(
            sigma=sigma, draws=np.random.default_rng(seed)))
        plain = training_signal(reordered_clone(codec, sigma), store, x,
                                lambda: np.random.default_rng(seed))
        for a, b in zip(shuffled, plain):
            assert np.array_equal(a, b)


def test_shuffle_pairing_with_zero_attention():
    # with zero attention the digests are the raw embeddings, so field k is
    # conditioned on the embedding of the field right before it in shuffled
    # order (or on c0 = 0 when it comes first)
    codec, store = flat_struct([3, 3, 3], shuffled=True, seed=12)
    zero_attention(store)
    x = struct_batch([[1], [2], [0]])
    sigma = (2, 0, 1)
    spy = LeafSpy(codec)
    _, score = codec.encode(x, rng=ForcedOrder(sigma=sigma))
    spy.score(root_conditioning(store, 1), score)
    w = [codec.children()[k].w.data for k in range(3)]
    embs = [w[0][1], w[1][2], w[2][0]]  # observed embeddings per field
    # slot order is (f2, f0, f1): f2 sees c0=0, f0 sees emb(f2), f1 sees emb(f0)
    assert np.array_equal(spy.logits["s/f2"][0], np.zeros(3))
    np.testing.assert_allclose(spy.logits["s/f0"][0], embs[2] @ w[0].T,
                               rtol=1e-15)
    np.testing.assert_allclose(spy.logits["s/f1"][0], embs[0] @ w[1].T,
                               rtol=1e-15)


def test_multi_pass_needs_a_shuffled_node():
    codec, store = flat_struct([2, 2], shuffled=False)
    x = struct_batch([[0], [1]])
    with pytest.raises(ValueError, match="shuffled"):
        pass_losses(codec, store, x, rng=np.random.default_rng(0), passes=2)


def test_multi_pass_reshuffles_and_trains():
    codec, store = flat_struct([3, 4, 2], shuffled=True, seed=13)
    x = struct_batch([[0, 1, 2, 0], [3, 2, 1, 1], [1, 0, 1, 1]])
    rng = np.random.default_rng(3)
    losses = pass_losses(codec, store, x, rng=rng, passes=4)
    assert len(losses) == 4
    data = {tuple(l.data.tolist()) for l in losses}
    assert len(data) > 1  # at least two distinct permutations showed up
    loss, grads = train_step(codec, store, x, rng=np.random.default_rng(4), passes=2)
    assert np.isfinite(loss)
    assert np.any(grads != 0.0)


@pytest.mark.parametrize("case", range(6))
def test_passes_draw_like_single_passes(case):
    # each pass re-encodes the batch, so k passes read one generator exactly
    # as k one-pass calls do, shuffled nodes at any depth included
    seed = 700 + case
    while True:
        rng = np.random.default_rng(seed)
        doc = random_schema_doc(rng, max_depth=3)
        codec, store = compile_schema(parse_schema(doc), width=8, blocks=2, heads=2,
                                      seed=case)
        if codec.has_shuffle():
            break
        seed += 100
    x = random_batch(codec, 6, rng)
    multi = pass_losses(codec, store, x, rng=np.random.default_rng(case), passes=3)
    one = np.random.default_rng(case)
    single = [pass_losses(codec, store, x, rng=one)[0] for _ in range(3)]
    assert len(multi) == 3
    for a, b in zip(multi, single):
        assert np.array_equal(a.data, b.data)


SCORED = {"type": "record", "name": "r", "shuffled": True, "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 4, "shuffled": True,
                           "items": {"type": "record", "name": "e", "fields": [
                               {"name": "b", "type": "enum", "cardinality": 4},
                               {"name": "c", "type": "long", "bins": 3}]}}}]}


def test_scorer_repeats_bitwise_and_encode_scores_nothing():
    # encode records only the embedding side; every leaf score is recorded
    # when the scorer runs, and running it again changes nothing
    codec, store = compile_schema(parse_schema(SCORED), width=8, blocks=2, heads=2, seed=3)
    x = random_batch(codec, 8, np.random.default_rng(30))
    groups = length_groups(x.fields["l"].lengths)
    assert len(groups) == 2

    def op_names(tape):
        return [backward.__qualname__.split(".")[0] for _, backward in tape._ops]

    with Tape() as tape:
        _, score = codec.encode(x, rng=np.random.default_rng(31))
    assert "categorical_nll" not in op_names(tape) and "gather_rows" in op_names(tape)
    runs = []
    for _ in range(2):
        store.zero_grads()
        cond = root_conditioning(store, 8)
        with Tape() as tape:
            losses = score(cond)
            loss = ad.sum_all(losses)
        tape.backward(loss)
        # a once; ~len once, on all rows of both length groups; b and c
        # once, on the list's elements
        assert op_names(tape).count("categorical_nll") == 1 + 1 + 2
        runs.append((losses.data, cond.grad, store.views(store.gradients().copy())))
    (l1, c1, g1), (l2, c2, g2) = runs
    assert np.array_equal(l1, l2) and np.array_equal(c1, c2)
    assert g1.keys() == g2.keys()
    for path in g1:
        assert np.array_equal(g1[path], g2[path]), path
    assert np.any(c1 != 0.0)


def test_each_leaf_path_is_scored_once_per_pass(monkeypatch):
    # a list in two length groups still scores its lengths with one call,
    # on all its rows, as each leaf scores its codes
    codec, store = compile_schema(parse_schema(SCORED), width=8, blocks=2, heads=2, seed=3)
    x = random_batch(codec, 8, np.random.default_rng(30))
    assert len(length_groups(x.fields["l"].lengths)) == 2
    leaves = {id(c.w): c.path for c in codec.walk() if isinstance(c, CategoricalCodec)}
    scored = []
    nll = ad.categorical_nll

    def spied(cond, w, codes):
        scored.append((leaves[id(w)], len(codes)))
        return nll(cond, w, codes)

    monkeypatch.setattr(ad, "categorical_nll", spied)
    pass_losses(codec, store, x, rng=np.random.default_rng(31), passes=2)
    elements = int(x.fields["l"].lengths.sum())
    rows = {"r/a": 8, "r/l/~len": 8, "r/l/e/b": elements, "r/l/e/c": elements}
    assert sorted(scored) == sorted(list(rows.items()) * 2)


# -- list --------------------------------------------------------------------

def test_list_rejects_bad_lengths():
    codec, _ = cat_list(3, max_len=2)
    with pytest.raises(ValueError, match="range"):
        codec.encode(list_batch([[0, 0, 0]]))
    with pytest.raises(ValueError, match="range"):
        codec.encode(ListBatch(np.array([-1]), LeafBatch(np.zeros(0, dtype=np.int64))))


def test_list_rejects_values_of_another_capacity():
    # values padded to a capacity axis, as batches were once laid out, are
    # refused: a list's values hold one row per element
    codec, _ = cat_list(3, max_len=2, path="tags")
    with pytest.raises(ValueError, match="^tags: tags/item has 2 elements, the lengths sum to 3$"):
        codec.encode(ListBatch(np.array([1, 2]), LeafBatch(np.zeros((2, 3), dtype=np.int64))))
    with pytest.raises(ValueError, match="^tags: tags/item has 4 elements, the lengths sum to 3$"):
        codec.encode(ListBatch(np.array([1, 2]), LeafBatch(np.zeros((4,), dtype=np.int64))))
    codec, _ = compile_schema(parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "ll", "type": {"type": "array", "name": "ll", "max_len": 2, "items": {
            "type": "array", "name": "in", "max_len": 3,
            "items": {"type": "enum", "name": "v", "cardinality": 2}}}}]}),
        width=8, blocks=1, heads=2)
    inner = ListBatch(np.zeros((1, 2), dtype=np.int64),
                      LeafBatch(np.zeros((1, 3, 3), dtype=np.int64)))  # outer capacity 3
    with pytest.raises(ValueError, match="^r/ll/in: r/ll/in/v has 1 elements, "
                                         "the lengths sum to 0$"):
        codec.encode(StructBatch({"ll": ListBatch(np.array([1]), inner)}))


ELEMENT_COUNTS = {"type": "record", "name": "r", "fields": [
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 3, "items": {
        "type": "record", "name": "e", "fields": [
            {"name": "a", "type": "enum", "cardinality": 2},
            {"name": "b", "type": "enum", "cardinality": 2},
            {"name": "in", "type": {"type": "array", "name": "in", "max_len": 2,
                                    "items": {"type": "enum", "name": "v",
                                              "cardinality": 2}}}]}}}]}


def test_list_rejects_a_wrong_element_count():
    # every leaf and list-length array at a list's element level, through
    # structs, holds lengths.sum() rows, and a nested list's elements are
    # counted against its own lengths; the error names the list and both counts
    codec, _ = compile_schema(parse_schema(ELEMENT_COUNTS), width=8, blocks=1, heads=2)
    [lst] = [c for c in codec.walk() if c.path.endswith("/l")]
    inner = lst.value_codec.children()[2]

    def batch(a, b, lists, v):
        zeros = lambda n: np.zeros(n, dtype=np.int64)  # noqa: E731
        return StructBatch({"l": ListBatch(np.array([1, 2]), StructBatch({
            "a": LeafBatch(zeros(a)), "b": LeafBatch(zeros(b)),
            "in": ListBatch(np.ones(lists, dtype=np.int64), LeafBatch(zeros(v)))}))})

    codec.encode(batch(3, 3, 3, 3))
    for counts, bad, n, path, want in [((2, 3, 3, 3), "a", 2, lst.path, 3),  # too short
                                       ((3, 4, 3, 3), "b", 4, lst.path, 3),  # too long
                                       ((3, 3, 4, 4), "in", 4, lst.path, 3),
                                       ((3, 3, 3, 2), "v", 2, inner.path, 3)]:
        child = next(c for c in codec.walk() if c.path.endswith("/" + bad))
        with pytest.raises(ValueError, match=f"^{path}: {child.path} has {n} elements, "
                                             f"the lengths sum to {want}$"):
            codec.encode(batch(*counts))


def only_group(x, digests):
    """(P, digests) of the single length group of list batch x, which holds
    every row in order; digests is the `digest_spy` list of one encode."""
    [(rows, P)] = length_groups(x.lengths)
    assert np.array_equal(rows, np.arange(x.lengths.shape[0])) and len(digests) == 1
    assert digests[0].data.shape[1] == P + 1
    return P, digests[0]


def test_empty_list_embedding_is_length_digest():
    codec, store = cat_list(3, max_len=4)
    x = list_batch([[], []])
    digests = digest_spy(codec)
    spy = LeafSpy(codec)
    emb, score = codec.encode(x)
    P, group_digests = only_group(x, digests)
    assert P == 1  # cut to one position, not max_len
    assert np.array_equal(emb.data, group_digests.data[:, 0, :])
    # loss reduces to the length term alone
    total = spy.score(root_conditioning(store, 2), score)
    assert np.array_equal(total.data, spy.terms["l/~len"].data)


def test_full_list_round_trips():
    codec, store = cat_list(3, max_len=3)
    x = list_batch([[2, 0, 1]])
    digests = digest_spy(codec)
    emb, _ = codec.encode(x)
    P, group_digests = only_group(x, digests)
    assert P == 3
    assert np.array_equal(emb.data, group_digests.data[:, 3, :])
    assert np.isfinite(forward_loss(codec, store, x))


def test_length_distribution_sees_no_values():
    codec, store = cat_list(4, max_len=3, seed=14)
    cond = root_conditioning(store, 2)
    spy = LeafSpy(codec)
    x_a = list_batch([[0, 1], [2, 3, 1]])
    x_b = list_batch([[3, 2], [0, 0, 0]])
    _, score_a = codec.encode(x_a)
    _, score_b = codec.encode(x_b)
    spy.score(cond, score_a)
    d_a = spy.logits["l/~len"]
    spy.score(cond, score_b)
    d_b = spy.logits["l/~len"]
    assert np.array_equal(d_a, d_b)


def test_element_distributions_are_causal():
    # d for element i depends on (c, m, elements < i) only
    codec, store = cat_list(5, max_len=4, seed=15)
    cond = root_conditioning(store, 1)
    spy = LeafSpy(codec)
    base = [1, 4, 2, 3]
    x0 = list_batch([base])
    _, score0 = codec.encode(x0)
    spy.score(cond, score0)
    rep0 = spy.logits["l/item"]
    for i in range(4):
        pert = list(base)
        for j in range(i, 4):
            pert[j] = (pert[j] + 2) % 5
        x = list_batch([pert])
        _, score = codec.encode(x)
        spy.score(cond, score)
        rep = spy.logits["l/item"]
        assert np.array_equal(rep[:i + 1], rep0[:i + 1]), i
        # element i itself feeds the next slot onward
        if i < 3:
            assert not np.array_equal(rep[i + 1], rep0[i + 1])


def test_element_distribution_depends_on_length():
    codec, store = cat_list(4, max_len=3, seed=16)
    cond = root_conditioning(store, 1)
    spy = LeafSpy(codec)
    x2 = list_batch([[1, 3]])
    x3 = list_batch([[1, 3, 0]])
    _, score2 = codec.encode(x2)
    _, score3 = codec.encode(x3)
    spy.score(cond, score2)
    d2 = spy.logits["l/item"]
    spy.score(cond, score3)
    d3 = spy.logits["l/item"]
    assert not np.array_equal(d2[0], d3[0])


def test_padding_is_invisible_and_gradient_free():
    # garbage in the padded slots of the grid must not move the loss or
    # receive gradient
    codec, store = cat_list(6, max_len=4, seed=17)
    x = list_batch([[5, 3], [], [1, 2, 3, 4], [0]])
    loss_c, grads_c = loss_gradients(codec, store, x)
    grids = padded_grids(codec, garbage=np.random.default_rng(18))
    loss_d, grads_d = loss_gradients(codec, store, x)
    assert loss_c == loss_d
    for path in grads_c:
        assert np.array_equal(grads_c[path], grads_d[path]), path

    # gradient w.r.t. the embeddings fed at padded positions is exactly zero
    # in every length group; lengths (0, 1) and (2, 4) run in groups of 1 and
    # 4 positions, so each group has padding
    assert [(rows.tolist(), P) for rows, P in length_groups(x.lengths)] == \
        [([1, 3], 1), ([0, 2], 4)]
    assert [mask.tolist() for _, mask, _ in grids] == \
        [[False, True], [True, True, False, False, True, True, True, True]]
    for _, mask, emb in grids:
        assert np.all(emb.grad[~mask] == 0.0)
    assert np.any(np.concatenate([emb.grad[mask] for _, mask, emb in grids]) != 0.0)


# -- set codec (shuffled list) -------------------------------------------------

def identity_perm(b, p):
    return np.tile(np.arange(p, dtype=np.int64), (b, 1))


def test_set_identity_perm_equals_plain_list():
    codec, store = cat_list(4, max_len=3, shuffled=True, seed=20)
    x = list_batch([[1, 3], [0, 2, 1]])
    plain = forward_loss(codec, store, x)
    forced = forward_loss(codec, store, x, rng=ForcedOrder(perm=identity_perm(2, 3)))
    assert plain == forced


def record_set(max_len, seed):
    """Shuffled list of (enum, numeric) records."""
    store = bare_store()
    rng = np.random.default_rng(seed)
    tcfg = TransformerConfig(width=8, blocks=1, heads=2)
    kids = [CategoricalCodec("l/item/e", 3, 8, store, rng),
            NumericalCodec("l/item/n", 5, 8, store, rng)]
    item = StructCodec("l/item", ["e", "n"], kids, tcfg, store, rng)
    codec = ListCodec("l", item, max_len, tcfg, store, rng, shuffled=True)
    store.pack()
    return codec, store


def test_set_perm_equals_reordered_observation():
    # shuffled loss with perm == plain loss on the perm-reordered rows
    codec, store = cat_list(5, max_len=4, shuffled=True, seed=21)
    grid = np.array([[4, 0, 2, 0], [1, 3, 0, 2]])
    perm = np.array([[2, 0, 1, 3],   # valid prefix permuted, pad stays put
                     [3, 1, 0, 2]], dtype=np.int64)
    cases = [(codec, store, [3, 4], grid, perm)]
    # a list of records, whose elements decode against their own contexts
    codec, store = record_set(max_len=5, seed=27)
    rng = np.random.default_rng(28)
    B, P = 6, 5
    for _ in range(20):
        lengths = rng.integers(0, P + 1, B)
        grid = {"e": rng.integers(0, 3, (B, P)), "n": rng.integers(0, 5, (B, P))}
        perm = np.tile(np.arange(P), (B, 1))
        for b, m in enumerate(lengths):
            perm[b, :m] = rng.permutation(m)
        cases.append((codec, store, lengths, grid, perm))
    for codec, store, lengths, grid, perm in cases:
        x = from_grid(lengths, grid)
        shuffled = pass_losses(codec, store, x, rng=ForcedOrder(perm=perm))[0]
        reordered = from_grid(lengths, grid, perm)
        plain = pass_losses(codec, store, reordered)[0]
        assert np.array_equal(shuffled.data, plain.data)
        # a shuffled pass is a plain pass over the reordered observation, so
        # its gradients and per-example clipping statistics match bitwise
        for a, b in zip(training_signal(codec, store, x, lambda: ForcedOrder(perm=perm)),
                        training_signal(codec, store, reordered)):
            assert np.array_equal(a, b)


def test_composites_draw_their_order_before_their_children():
    # a shuffled list draws its keys before its value codec's draws (once per
    # pass, over all elements, whatever the length groups), and a shuffled
    # struct its permutation before its children's, which then encode, and
    # draw, in that order
    lengths = np.array([0, 1, 1, 1, 1, 1, 1, 5])
    doc = {"type": "array", "name": "l", "max_len": 5, "shuffled": True,
           "items": {"type": "record", "name": "r", "shuffled": True, "fields": [
               {"name": "a", "type": "enum", "cardinality": 2},
               {"name": "b", "type": "enum", "cardinality": 3}]}}
    codec, _ = compile_schema(parse_schema(doc), width=8, blocks=1, heads=2)
    x = random_batch(codec, 8, np.random.default_rng(0), pick=lambda c, n: lengths)
    assert len(length_groups(lengths)) == 2
    rng = RecordingRng(1)
    codec.encode(x, rng=rng)
    assert rng.calls == [("random", (8, 5)), ("permutation", 2)]
    codec, _ = compile_schema(parse_schema(LISTS_IN_STRUCT), width=8, blocks=1, heads=2)
    x = random_batch(codec, 4, np.random.default_rng(2))
    for seed in range(8):
        rng = RecordingRng(seed)
        codec.encode(x, rng=rng)
        sigma = np.random.default_rng(seed).permutation(4)
        max_len = {1: 3, 3: 4}
        assert rng.calls == [("permutation", 4)] + [("random", (4, max_len[k]))
                                                    for k in sigma if k in max_len]


def test_set_empty_rows_unaffected_by_shuffle():
    codec, store = cat_list(3, max_len=3, shuffled=True, seed=22)
    x = list_batch([[], []])
    plain = pass_losses(codec, store, x)[0]
    drawn = pass_losses(codec, store, x, rng=np.random.default_rng(23))[0]
    assert np.array_equal(plain.data, drawn.data)


def test_set_random_perms_keep_padding_in_place():
    codec, store = cat_list(3, max_len=4, shuffled=True, seed=24)
    perm = codec._draw_perm(np.random.default_rng(25), np.array([2, 4, 0]))
    assert perm.shape == (3, 4)
    for b in range(3):
        assert sorted(perm[b].tolist()) == [0, 1, 2, 3]
    assert np.array_equal(perm[0][2:], [2, 3])
    assert np.array_equal(perm[2], [0, 1, 2, 3])


# -- list sampling -------------------------------------------------------------

def test_sampled_zero_lengths_give_empty_lists():
    codec, store = cat_list(3, max_len=4, seed=26)
    # zero uniforms always pick the smallest CDF bucket, length 0 included
    tree, emb = codec.sample(root_conditioning(store, 8), ZeroDraws())
    assert np.array_equal(tree.lengths, np.zeros(8, dtype=np.int64))
    assert tree.values.codes.shape == (0,)
    assert emb.data.shape == (8, 8)


def test_sample_respects_max_len_and_seed():
    codec, store = cat_list(3, max_len=4, seed=27)
    cond = root_conditioning(store, 200)
    a, _ = codec.sample(cond, np.random.default_rng(28))
    b, _ = codec.sample(cond, np.random.default_rng(28))
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.values.codes, b.values.codes)
    assert a.lengths.min() >= 0 and a.lengths.max() <= 4
    assert_offsets(a)


def test_sampled_lists_hold_their_elements_end_to_end():
    # list of a struct with a numeric leaf: each list node's values are its
    # rows' elements end to end, and the numeric ones are sampled real values
    store = bare_store()
    rng = np.random.default_rng(32)
    tcfg = TransformerConfig(width=8, blocks=1, heads=2)
    table = QuantileTable(np.array([0.5, 1.0, 2.0, 4.0]))
    kids = [CategoricalCodec("l/item/c", 3, 8, store, rng),
            NumericalCodec("l/item/n", 4, 8, store, rng, table=table)]
    item = StructCodec("l/item", ["c", "n"], kids, tcfg, store, rng)
    codec = ListCodec("l", item, 5, tcfg, store, rng)
    tree, _ = codec.sample(root_conditioning(store, 300), np.random.default_rng(33))
    assert_offsets(tree)
    assert 0 < n_rows(tree.values) < 300 * 5
    assert np.all(tree.values.fields["n"].codes >= 0.5)
    # and so at every depth of random schemas with lists in lists
    for case, (doc, _) in enumerate(SAMPLER_CASES):
        codec, store = compile_schema(parse_schema(doc), width=8, blocks=1, heads=2,
                                      seed=case)
        attach_tables(codec, np.random.default_rng(case))
        assert_offsets(sample_rows(codec, store, 40, np.random.default_rng(case)))


def test_training_pins_constant_length():
    # a list codec trained on constant-length rows should sample that length;
    # needs the compiled-model nonzero conditioning constant, without which
    # the root length distribution could never leave uniform
    codec, store = cat_list(2, max_len=3, seed=29)
    store.c0 = np.random.default_rng(31).normal(size=8)
    x = list_batch([[0, 1]] * 32)
    from nestgen.optim import Adam
    opt = Adam(lr=0.05)
    for _ in range(150):
        loss, grads = train_step(codec, store, x)
        opt.step(store, grads)
    tree, _ = codec.sample(root_conditioning(store, 1000),
                           np.random.default_rng(30))
    assert np.all(tree.lengths == 2)


# -- cached sampling -------------------------------------------------------------

STRUCT_LIST_STRUCT = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "l", "type": {"type": "array", "name": "l", "max_len": 3, "shuffled": True,
                           "items": {"type": "record", "name": "s", "fields": [
                               {"name": "b", "type": "enum", "cardinality": 2},
                               {"name": "c", "type": "long", "bins": 3}]}}}]}
LIST_OF_LISTS = {"type": "record", "name": "r", "fields": [
    {"name": "ll", "type": {"type": "array", "name": "ll", "max_len": 3,
                            "items": {"type": "array", "name": "in", "max_len": 2,
                                      "shuffled": True,
                                      "items": {"type": "enum", "name": "v",
                                                "cardinality": 3}}}}]}
SAMPLER_CASES = (
    [(STRUCT_LIST_STRUCT, 1), (STRUCT_LIST_STRUCT, 2), (LIST_OF_LISTS, 2), (LIST_OF_LISTS, 1)]
    + [(random_schema_doc(np.random.default_rng(40 + i), max_depth=3), 1 + i % 2)
       for i in range(4)])


def _as_codes(codec, tree):
    """A sampled tree with numeric values mapped back to their bin codes."""
    if isinstance(codec, NumericalCodec):
        return LeafBatch(codec.table.bin_values(tree.codes))
    if isinstance(codec, StructCodec):
        return StructBatch({n: _as_codes(c, tree.fields[n])
                            for n, c in zip(codec.names, codec.children())})
    if isinstance(codec, ListCodec):
        return ListBatch(tree.lengths, _as_codes(codec.value_codec, tree.values))
    return tree


@pytest.mark.parametrize("doc,blocks", SAMPLER_CASES)
def test_cached_steps_match_full_prefix(monkeypatch, doc, blocks):
    codec, store = compile_schema(parse_schema(doc), width=8, blocks=blocks, heads=2,
                                  seed=41)
    attach_tables(codec, np.random.default_rng(42))
    step, take, leaf_sample = AttentionStack.step, KVCache.take, CategoricalCodec.sample
    inputs = {}   # id(cache) -> (cache, inputs stepped into it so far)
    full_of = {}  # id(step output) -> (output, same row of __call__ on the prefix)
    checked = {"steps": 0, "leaves": 0}

    def checked_step(self, x, cache):
        prefix = inputs.get(id(cache), (cache, []))[1] + [x.data]
        out = step(self, x, cache)
        full = self(Tensor(np.stack(prefix, axis=1))).data[:, -1]
        np.testing.assert_allclose(out.data, full, rtol=0, atol=1e-10)
        inputs[id(cache)] = (cache, prefix)
        full_of[id(out)] = (out, full)
        checked["steps"] += 1
        return out

    def checked_take(self, rows):
        new = take(self, rows)
        inputs[id(new)] = (new, [a[rows] for a in inputs[id(self)][1]])
        return new

    def checked_leaf_sample(self, cond, rng):
        full = full_of[id(cond)][1]
        np.testing.assert_allclose(cond.data @ self.w.data.T, full @ self.w.data.T,
                                   rtol=0, atol=1e-10)
        checked["leaves"] += 1
        return leaf_sample(self, cond, rng)

    monkeypatch.setattr(AttentionStack, "step", checked_step)
    monkeypatch.setattr(KVCache, "take", checked_take)
    monkeypatch.setattr(CategoricalCodec, "sample", checked_leaf_sample)
    tree, emb = codec.sample(root_conditioning(store, 64), np.random.default_rng(43))
    assert checked["steps"] > 0 and checked["leaves"] > 0
    # the returned embedding is what the training encoder makes of the sample
    enc_emb, _ = codec.encode(_as_codes(codec, tree))
    np.testing.assert_allclose(emb.data, enc_emb.data, rtol=0, atol=1e-10)


def test_sampling_never_runs_the_full_stack(monkeypatch):
    codec, store = compile_schema(parse_schema(STRUCT_LIST_STRUCT), width=8, blocks=2,
                                  heads=2, seed=44)
    attach_tables(codec, np.random.default_rng(45))

    def refuse(self, x):
        raise AssertionError("sampling ran AttentionStack.__call__")

    monkeypatch.setattr(AttentionStack, "__call__", refuse)
    tree = sample_rows(codec, store, 50, np.random.default_rng(46))
    assert tree.fields["l"].lengths.max() > 0
