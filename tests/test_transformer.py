"""Attention stack: causality, residual passthrough, gradients."""

import dataclasses

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.batches import LeafBatch
from nestgen.codecs.base import per_example_gradients, train_step
from nestgen.codecs.composites import ListCodec
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema
from nestgen.transformer import AttentionStack, KVCache, TransformerConfig

from conftest import (check_op_gradients, example_matrix, fd_gradient, random_batch,
                      random_schema_doc)
from reference_ops import (ConcatKVCache, attention_block, concat_step, filled_attention,
                           head_major, position_major)
from test_grouped_lists import SHUFFLED, split_lists


def make_stack(width=8, blocks=1, heads=2, seed=0):
    store = ParamStore()
    cfg = TransformerConfig(width=width, blocks=blocks, heads=heads)
    stack = AttentionStack(cfg, store, "enc", np.random.default_rng(seed))
    return stack, store


def test_config_rejects_indivisible_width():
    with pytest.raises(ValueError, match="divisible"):
        TransformerConfig(width=8, heads=3)


def test_config_rejects_zero_blocks():
    with pytest.raises(ValueError, match="block"):
        TransformerConfig(width=8, blocks=0, heads=2)


@pytest.mark.parametrize("field", ["width", "blocks", "heads"])
def test_config_is_frozen(field):
    # checked once when built: a field assigned later would skip the check
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(TransformerConfig(), field, 0)


def test_width_mismatch_raises(rng):
    stack, _ = make_stack(width=8)
    x = Tensor(rng.standard_normal((2, 3, 16)))
    with pytest.raises(ValueError, match="width"):
        stack(x)


def test_empty_sequence_raises(rng):
    stack, _ = make_stack(width=8)
    x = Tensor(np.zeros((2, 0, 8)))
    with pytest.raises(ValueError, match="position"):
        stack(x)


def test_zero_output_projection_is_identity(rng):
    # With wo = 0 the attention contribution vanishes and the residual
    # carries the input through unchanged, for any L and block count.
    stack, store = make_stack(width=8, blocks=2, heads=2)
    for path in store.paths():
        if path.endswith("/wo"):
            store[path].data[:] = 0.0
    for L in (1, 3):
        x = rng.standard_normal((4, L, 8))
        out = stack(Tensor(x))
        assert np.array_equal(out.data, x)


def test_single_position_sees_only_itself(rng):
    # L=1: output is a deterministic function of x[0] alone.
    stack, _ = make_stack(width=8, blocks=1, heads=2, seed=3)
    x = rng.standard_normal((1, 1, 8))
    base = stack(Tensor(x)).data.copy()
    again = stack(Tensor(x.copy())).data
    assert np.array_equal(base, again)


def test_causal_mask_is_bitwise(rng):
    # Perturbing x[j] for j > k must leave output[0..k] bit-identical.
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=7)
    B, L = 3, 5
    x = rng.standard_normal((B, L, 8))
    base = stack(Tensor(x)).data.copy()
    for k in range(L - 1):
        pert = x.copy()
        pert[:, k + 1:, :] += rng.standard_normal((B, L - k - 1, 8)) * 100.0
        out = stack(Tensor(pert)).data
        assert np.array_equal(out[:, :k + 1, :], base[:, :k + 1, :])
        assert not np.array_equal(out[:, k + 1:, :], base[:, k + 1:, :])


def test_invalid_columns_never_attended(rng):
    # Each row's positions after its own prefix length, where a list keeps
    # its padding, never reach the prefix outputs, bitwise, through two
    # blocks: causality alone keeps them out.
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=11)
    lengths = np.array([1, 3, 4, 2])
    B, L = lengths.size, 4
    prefix = np.arange(L)[None, :] < lengths[:, None]
    x = rng.standard_normal((B, L, 8))
    base = stack(Tensor(x)).data.copy()
    pert = x.copy()
    pert[~prefix] = 1e6
    out = stack(Tensor(pert)).data
    assert np.array_equal(out[prefix], base[prefix])


def test_forward_is_deterministic(rng):
    stack_a, store_a = make_stack(width=8, blocks=2, heads=4, seed=5)
    stack_b, store_b = make_stack(width=8, blocks=2, heads=4, seed=5)
    for path in store_a.paths():
        assert np.array_equal(store_a[path].data, store_b[path].data)
    x = rng.standard_normal((2, 3, 8))
    assert np.array_equal(stack_a(Tensor(x)).data, stack_b(Tensor(x)).data)


def test_reduced_block_parameter_count():
    _, store = make_stack(width=8, blocks=1, heads=2)
    assert sorted(store.paths()) == ["enc/b0/wk", "enc/b0/wo", "enc/b0/wq",
                                     "enc/b0/wv"]
    assert store.n_params() == 4 * 8 * 8


def _check_param_gradients(stack, store, x, rtol=1e-4):
    """sum(output) gradient for every parameter vs central differences."""
    def scalar():
        return float(stack(Tensor(x)).data.sum())

    store.zero_grads()
    with Tape() as tape:
        loss = ad.sum_all(stack(Tensor(x)))
    tape.backward(loss)
    for path in store.paths():
        t = store[path]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_gradient(scalar, t, step=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-8,
                                   err_msg=path)


def test_gradients_match_finite_differences(rng):
    # The reference configuration: L=4, d=8, one block, two heads.
    stack, store = make_stack(width=8, blocks=1, heads=2, seed=21)
    x = rng.standard_normal((1, 4, 8))
    _check_param_gradients(stack, store, x, rtol=1e-4)


def test_gradients_with_two_blocks(rng):
    stack, store = make_stack(width=8, blocks=2, heads=4, seed=22)
    x = rng.standard_normal((2, 3, 8))
    _check_param_gradients(stack, store, x, rtol=1e-4)


def test_input_gradient_matches_finite_differences(rng):
    stack, store = make_stack(width=8, blocks=1, heads=2, seed=24)
    x = rng.standard_normal((2, 3, 8))
    xt = Tensor(x.copy())

    def scalar():
        return float(stack(xt).data.sum())

    store.zero_grads()
    with Tape() as tape:
        loss = ad.sum_all(stack(xt))
    tape.backward(loss)
    numeric = fd_gradient(scalar, xt, step=1e-5)
    np.testing.assert_allclose(xt.grad, numeric, rtol=1e-4, atol=1e-8)


def test_masked_positions_get_zero_gradient(rng):
    # A loss over each row's prefix only, as a list's loss mask keeps: the
    # inputs after the prefix get exactly zero gradient through two blocks,
    # because no prefix position attends them.
    stack, store = make_stack(width=8, blocks=2, heads=2, seed=25)
    lengths = np.array([2, 1, 4, 3])
    B, L = lengths.size, 4
    prefix = np.arange(L)[None, :] < lengths[:, None]
    xt = Tensor(rng.standard_normal((B, L, 8)))
    store.zero_grads()
    with Tape() as tape:
        out = stack(xt)
        keep = ad.mul_const(out, prefix[:, :, None].astype(float))
        loss = ad.sum_all(keep)
    tape.backward(loss)
    assert np.all(xt.grad[~prefix] == 0.0)
    assert np.all(np.any(xt.grad[prefix] != 0.0, axis=-1))


# -- the fused block against the 17-op block it replaced ----------------------

def causal_blocked(L, t=0):
    """(L, t+L) True where new position i may not attend key j: j > t + i."""
    return np.arange(t + L)[None, :] > t + np.arange(L)[:, None]


def reference_block(self, blk, x, past=None):
    """`AttentionStack._block` as the 17-op reference block, under a causal
    mask built here rather than by the op. Like the op, it writes x's keys
    and values into the last L slots of the position-major buffers `past`."""
    B, L, d = x.data.shape
    H = self.cfg.heads
    t = 0 if past is None else past[0].shape[0] - L
    earlier = None if past is None else tuple(head_major(buf[:t], H) for buf in past)
    out, (k, v) = attention_block(blk, x, H, causal_blocked(L, t), earlier)
    if past is not None:
        for buf, new in zip(past, (k, v)):
            buf[t:] = position_major(new[:, :, t:])
    return out


TOL = 1e-12

# ids name the mask the op applies: one new position attends every key, so
# no score is filled; four are causal, offset by the cached positions
MASKS = [pytest.param(1, id="none"), pytest.param(4, id="causal")]


def cache_buffers(rng, t, B, L, d):
    """(keys, values) position-major buffers of t random earlier positions
    and L slots for the new ones."""
    return tuple(np.concatenate([rng.standard_normal((t, B, d)), np.full((L, B, d), np.nan)])
                 for _ in range(2))


def _block_run(block, stack, store, x, past, w, per_example):
    """(output, x gradient, weight gradients) of one block under the loss
    sum(output * w), on a plain or a per-example tape, then the keys and
    values it left in copies of the buffers `past`, if any."""
    blk = stack.blocks[0]
    params = [blk[n] for n in ("wq", "wk", "wv", "wo")]
    xt = Tensor(x.copy())
    past = None if past is None else tuple(buf.copy() for buf in past)
    store.zero_grads()
    ex = ad.ExampleGrads(x.shape[0], params) if per_example else None
    with Tape(per_example=ex) as tape:
        out = block(stack, blk, xt, past)
        loss = ad.sum_all(ad.mul_const(out, w))
    tape.backward(loss)
    grads = example_matrix(ex) if per_example else np.concatenate([p.grad.ravel() for p in params])
    return [out.data, xt.grad, grads, *(past or ())]


@pytest.mark.parametrize("past_len", [0, 3])
@pytest.mark.parametrize("L", MASKS)
@pytest.mark.parametrize("per_example", [False, True])
def test_fused_block_matches_reference(rng, past_len, L, per_example):
    # past_len 0 is training's path, without a cache
    stack, store = make_stack(width=8, blocks=1, heads=2, seed=31)
    B = 5
    x = rng.standard_normal((B, L, 8))
    past = cache_buffers(rng, past_len, B, L, 8) if past_len else None
    w = rng.standard_normal((B, L, 8))
    got = _block_run(AttentionStack._block, stack, store, x, past, w, per_example)
    want = _block_run(reference_block, stack, store, x, past, w, per_example)
    assert len(got) == len(want) == (5 if past_len else 3)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("L", MASKS)
def test_fused_op_gradients_match_finite_differences(rng, L):
    B, d, H = 2, 8, 2
    x = Tensor(rng.standard_normal((B, L, d)))
    ws = [Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    check_op_gradients(lambda: ad.attention(x, *ws, H), [x, *ws], rng)


def test_fused_op_gradients_with_past(rng):
    # the cached keys and values are constants: only x and the weights move;
    # the two new positions are causal after the three cached ones, and the
    # op writes their keys and values into the buffers' last two slots
    B, L, d, H, t = 2, 2, 8, 2, 3
    x = Tensor(rng.standard_normal((B, L, d)))
    ws = [Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    past = cache_buffers(rng, t, B, L, d)
    earlier = [buf[:t].copy() for buf in past]
    ad.attention(x, *ws, H, past)
    for buf, before, w in zip(past, earlier, ws[1:3]):
        assert np.array_equal(buf[:t], before)
        np.testing.assert_allclose(buf[t:], (x.data @ w.data).swapaxes(0, 1), rtol=TOL, atol=TOL)
    check_op_gradients(lambda: ad.attention(x, *ws, H, past), [x, *ws], rng)


# -- the op's softmax against the filled softmax it replaced -----------------

def _hard_rows(rng, t, L, B, d):
    """x (B, L, d) and the four weights, wk equal to wq so that each score
    q_i . k_i is positive: row 0 is random; every position of row 1 is the
    same, so all its scores are equal; positions 0 and 1 of row 2 are equal
    and large, so query 1 has a tied max; row 3's last position is 1000
    times its first, so with L > 1 query 0's masked score there lies far
    above its visible max. Cached keys and values are random."""
    x = rng.standard_normal((B, L, d))
    x[1] = x[1, :1]
    if L > 1:
        x[2, :2] = 3.0 * x[2, 0]
        x[3, -1] = 1e3 * x[3, 0]
    wq = rng.standard_normal((d, d))
    ws = [wq, wq.copy(), rng.standard_normal((d, d)), rng.standard_normal((d, d))]
    return x, ws, cache_buffers(rng, t, B, L, d) if t else None


def _op_run(op, x, ws, heads, past, w, per_example):
    """Every array one attention op leaves under the loss sum(output * w):
    its output, x's gradient, then the weights' gradients, or on a
    per-example tape every field of every read, then the cache buffers."""
    xt, wts = Tensor(x.copy()), [Tensor(a) for a in ws]
    past = None if past is None else tuple(buf.copy() for buf in past)
    ex = ad.ExampleGrads(x.shape[0], wts) if per_example else None
    with Tape(per_example=ex) as tape:
        loss = ad.sum_all(ad.mul_const(op(xt, *wts, heads, past), w))
    tape.backward(loss)
    grads = ([f for p in wts for read in ex.reads[p] for f in read] if per_example
             else [p.grad for p in wts])
    return [tape._ops[0][0].data, xt.grad, *grads, *(past or ())]


# (t, L): training, cached steps and causal steps with a past
SOFTMAX_CASES = ([pytest.param(0, L, id=f"train-L{L}") for L in (2, 4, 9, 16, 33)]
                 + [pytest.param(t, 1, id=f"step-t{t}") for t in (1, 8)]
                 + [pytest.param(3, L, id=f"past-L{L}") for L in (2, 5)])


@pytest.mark.parametrize("t,L", SOFTMAX_CASES)
@pytest.mark.parametrize("per_example", [False, True])
def test_attention_matches_the_filled_softmax_bitwise(rng, t, L, per_example):
    B, d, heads = 4, 8, 2
    x, ws, past = _hard_rows(rng, t, L, B, d)
    if L > 1:  # the rows hold what they are built to hold
        q = (x @ ws[0]).reshape(B, L, heads, d // heads)
        s = np.einsum("blhe,bmhe->bhlm", q, q) / np.sqrt(d // heads)
        assert np.all(s[1] == s[1, :, :1, :1])
        assert np.all(s[2, :, 1, 0] == s[2, :, 1, 1]) and np.all(s[2, :, 1, 0] == s[2, :, 1, :2].max(-1))
        visible = s[3, :, 0, 0]
        if t:
            cached = past[0][:t, 3].reshape(t, heads, d // heads)
            visible = np.maximum(visible, np.einsum("he,the->ht", q[3, 0], cached).max(-1)
                                 / np.sqrt(d // heads))
        assert np.all(s[3, :, 0, -1] - visible > 709.0)
    w = rng.standard_normal((B, L, d))
    got = _op_run(ad.attention, x, ws, heads, past, w, per_example)
    want = _op_run(filled_attention, x, ws, heads, past, w, per_example)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- the slot cache against the concatenating cache it replaced --------------

def _struct_schedule(rng, slots, B):
    """Steps (None) and takes (row arrays) for a struct-like node of `slots`
    slots and B rows: it reorders the rows, drops half, then keeps none."""
    return ([None] * 4 + [rng.permutation(B)] + [None] * 3
            + [np.sort(rng.choice(B, B // 2, replace=False))] + [None] * 3
            + [np.array([], dtype=np.int64)] + [None] * (slots - 10))


def _list_schedule(rng, slots, B):
    """Steps and takes for a list-like node: after the length step, each
    element step first drops the rows whose lengths are reached, as
    `ListCodec.sample` does; the fourth also reorders the rows, and a last
    step runs on zero rows."""
    m = np.minimum(rng.geometric(1 / 7, B) - 1, slots - 2)
    schedule, rows = [None], np.arange(B)
    for i in range(int(m.max())):
        live = np.flatnonzero(m[rows] > i)
        if i == 3:
            live = live[rng.permutation(live.size)]
        if live.size < rows.size or i == 3:
            rows = rows[live]
            schedule.append(live)
        schedule.append(None)
    return schedule + [np.array([], dtype=np.int64), None]


# a flat_wide-like root struct and a long_sets-like list, both with two blocks
CACHE_SHAPES = [pytest.param(64, 8, 300, 16, _struct_schedule, id="flat_wide-struct"),
                pytest.param(32, 4, 160, 33, _list_schedule, id="long_sets-list")]


@pytest.mark.parametrize("width,heads,B,slots,schedule", CACHE_SHAPES)
def test_slot_cache_matches_concatenating_cache_bitwise(rng, width, heads, B, slots, schedule):
    stack, _ = make_stack(width=width, blocks=2, heads=heads, seed=51)
    schedule = schedule(rng, slots, B)
    assert sum(op is None for op in schedule) <= slots
    assert any(op is not None and op.size == 0 for op in schedule)
    cache, ref, n = KVCache(slots), ConcatKVCache(), B
    for op in schedule:
        if op is None:
            x = rng.standard_normal((n, width))
            got = stack.step(Tensor(x), cache).data
            assert np.array_equal(got, concat_step(stack, x, ref))
        else:
            cache, ref, n = cache.take(op), ref.take(op), op.size
        # slot s holds block 0's keys and values, then block 1's
        for j, want in enumerate(a for kv in ref.kv for a in kv):
            assert np.array_equal(head_major(cache.buf[:cache.filled, j], heads), want)
    assert n == 0 and cache.filled > 0


def test_cache_refuses_a_step_past_its_slots(rng):
    stack, _ = make_stack(width=8, blocks=2, heads=2)
    cache = KVCache(2)
    for _ in range(2):
        stack.step(Tensor(rng.standard_normal((3, 8))), cache)
    with pytest.raises(ValueError, match="all 2 slots"):
        stack.step(Tensor(rng.standard_normal((3, 8))), cache)
    assert cache.filled == 2


def test_cache_room_doubles_up_to_its_slots(rng):
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=54)
    x = rng.standard_normal((3, 6, 8))
    cache, rooms = KVCache(6), []
    for k in range(6):
        a = stack.step(Tensor(x[:, k]), cache).data
        rooms.append(cache.buf.shape[0])
        if k == 1:  # a take of a full cache takes into twice the room
            cache = cache.take(np.arange(3))
            assert cache.buf.shape[0] == 4
    assert rooms == [1, 2, 4, 4, 6, 6]
    assert np.array_equal(a, stack(Tensor(x)).data[:, -1])


def test_list_sampling_cache_follows_the_lengths_drawn(rng, monkeypatch):
    # lengths at most 2 under max_len 1000: no cache may hold room for
    # max_len + 1 slots, which at width 8, 2 blocks and 64 rows would be
    # 16 MB each
    doc = {"name": "r", "type": "record", "fields": [
        {"name": "tags", "type": "array", "max_len": 1000,
         "items": {"name": "t", "type": "enum", "cardinality": 3}}]}
    codec, store = compile_schema(parse_schema(doc), width=8, blocks=2, heads=2)
    lists = next(c for c in codec.walk() if isinstance(c, ListCodec))
    monkeypatch.setattr(lists.len_codec, "sample", lambda cond, rng: (
        LeafBatch(c := rng.integers(0, 3, cond.shape[0])), ad.gather_rows(lists.len_codec.w, c)))
    rooms, advance = [], KVCache.advance

    def spy(cache, *args):
        views = advance(cache, *args)
        rooms.append(cache.buf.shape[0])
        return views
    monkeypatch.setattr(KVCache, "advance", spy)
    sampled, _ = codec.sample(rng.standard_normal((64, 8)), rng)
    assert sampled.fields["tags"].lengths.max() == 2
    assert max(rooms) == 4


def test_cache_take_before_the_first_step(rng):
    # a take of an empty cache keeps it empty: the first step then sizes it
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=52)
    x = rng.standard_normal((2, 3, 8))
    taken, fresh = KVCache(3).take(np.array([4, 1])), KVCache(3)
    for k in range(3):
        a = stack.step(Tensor(x[:, k]), taken).data
        assert np.array_equal(a, stack.step(Tensor(x[:, k]), fresh).data)
    assert np.array_equal(a, stack(Tensor(x)).data[:, -1])


def test_cache_steps_and_takes_zero_rows(rng):
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=53)
    cache = KVCache(4)
    for _ in range(2):
        assert stack.step(Tensor(np.zeros((0, 8))), cache).data.shape == (0, 8)
    cache = cache.take(np.array([], dtype=np.int64))
    assert stack.step(Tensor(np.zeros((0, 8))), cache).data.shape == (0, 8)
    assert cache.filled == 3


def test_fused_block_is_one_tape_op(rng):
    stack, _ = make_stack(width=8, blocks=2, heads=2)
    with Tape() as tape:
        stack(Tensor(rng.standard_normal((2, 3, 8))))
    assert len(tape._ops) == 2


def _list_schemas(count):
    """Random nested schema documents that hold at least one list."""
    docs, seed = [], 400
    while len(docs) < count:
        doc = random_schema_doc(np.random.default_rng(seed), max_depth=3)
        codec, _ = compile_schema(parse_schema(doc), width=8, blocks=1, heads=2)
        if any(isinstance(c, ListCodec) for c in codec.walk()):
            docs.append(doc)
        seed += 1
    return docs


MODEL_DOCS = ([pytest.param(doc, id=f"random{i}") for i, doc in enumerate(_list_schemas(4))]
              + [pytest.param(SHUFFLED, id="shuffled-lists")])


def _training(codec, store, batch):
    """Root embedding, loss and gradients of two shuffled passes, plainly and
    per example."""
    rng = lambda: np.random.default_rng(7)  # noqa: E731
    emb, _ = codec.encode(batch, rng=rng())
    loss, grads = train_step(codec, store, batch, rng=rng(), passes=2)
    losses, ex = per_example_gradients(codec, store, batch, rng=rng(), passes=2)
    return [emb.data, np.array([loss]), *store.views(grads.copy()).values(), losses,
            example_matrix(ex)]


@pytest.mark.parametrize("doc", MODEL_DOCS)
def test_models_train_as_with_the_reference_block(monkeypatch, doc):
    codec, store = compile_schema(parse_schema(doc), width=8, blocks=2, heads=2, seed=3)
    batch = random_batch(codec, 9, np.random.default_rng(8))
    got = _training(codec, store, batch)
    monkeypatch.setattr(AttentionStack, "_block", reference_block)
    want = _training(codec, store, batch)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)
    assert np.any(got[-1] != 0.0)


def test_model_cases_cover_length_groups_and_shuffled_lists():
    codecs = [compile_schema(parse_schema(p.values[0]), width=8, blocks=1, heads=2)[0]
              for p in MODEL_DOCS]
    lists = [c for codec in codecs for c in codec.walk() if isinstance(c, ListCodec)]
    assert any(c.shuffled for c in lists)
    assert all(split_lists(codec, random_batch(codec, 9, np.random.default_rng(8))) > 0
               for codec in codecs)
