"""Attention stack: causality, residual passthrough, gradients."""

import dataclasses

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.codecs.base import per_example_gradients, train_step
from nestgen.codecs.composites import ListCodec
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema
from nestgen.transformer import AttentionStack, TransformerConfig

from conftest import (check_op_gradients, example_matrix, fd_gradient, random_batch,
                      random_schema_doc)
from reference_ops import attention_block
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
    mask built here rather than by the op."""
    t = 0 if past is None else past[0].shape[2]
    return attention_block(blk, x, self.cfg.heads, causal_blocked(x.data.shape[1], t), past)


TOL = 1e-12

# ids name the mask the op applies: one new position attends every key, so
# no score is filled; four are causal, offset by the cached positions
MASKS = [pytest.param(1, id="none"), pytest.param(4, id="causal")]


def _block_run(block, stack, store, x, past, w, per_example):
    """(output, keys, values, x gradient, weight gradients) of one block under
    the loss sum(output * w), on a plain or a per-example tape."""
    blk = stack.blocks[0]
    params = [blk[n] for n in ("wq", "wk", "wv", "wo")]
    xt = Tensor(x.copy())
    store.zero_grads()
    ex = ad.ExampleGrads(x.shape[0], params) if per_example else None
    with Tape(per_example=ex) as tape:
        out, (k, v) = block(stack, blk, xt, past)
        loss = ad.sum_all(ad.mul_const(out, w))
    tape.backward(loss)
    grads = example_matrix(ex) if per_example else np.concatenate([p.grad.ravel() for p in params])
    return out.data, k, v, xt.grad, grads


@pytest.mark.parametrize("past_len", [0, 3])
@pytest.mark.parametrize("L", MASKS)
@pytest.mark.parametrize("per_example", [False, True])
def test_fused_block_matches_reference(rng, past_len, L, per_example):
    stack, store = make_stack(width=8, blocks=1, heads=2, seed=31)
    B = 5
    x = rng.standard_normal((B, L, 8))
    past = None
    if past_len:
        past = tuple(rng.standard_normal((B, 2, past_len, 4)) for _ in range(2))
    w = rng.standard_normal((B, L, 8))
    got = _block_run(AttentionStack._block, stack, store, x, past, w, per_example)
    want = _block_run(reference_block, stack, store, x, past, w, per_example)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("L", MASKS)
def test_fused_op_gradients_match_finite_differences(rng, L):
    B, d, H = 2, 8, 2
    x = Tensor(rng.standard_normal((B, L, d)))
    ws = [Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    check_op_gradients(lambda: ad.attention(x, *ws, H)[0], [x, *ws], rng)


def test_fused_op_gradients_with_past(rng):
    # the cached keys and values are constants: only x and the weights move;
    # the two new positions are causal after the three cached ones
    B, L, d, H, t = 2, 2, 8, 2, 3
    x = Tensor(rng.standard_normal((B, L, d)))
    ws = [Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    past = tuple(rng.standard_normal((B, H, t, d // H)) for _ in range(2))
    out, (k, v) = ad.attention(x, *ws, H, past)
    assert np.array_equal(k[:, :, :t], past[0]) and np.array_equal(v[:, :, :t], past[1])
    check_op_gradients(lambda: ad.attention(x, *ws, H, past)[0], [x, *ws], rng)


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
