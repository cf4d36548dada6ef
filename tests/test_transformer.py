"""Attention stack: causality, residual passthrough, masking, gradients."""

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.params import ParamStore
from nestgen.transformer import AttentionStack, TransformerConfig

from conftest import fd_gradient


def make_stack(width=8, blocks=1, heads=2, seed=0):
    store = ParamStore()
    cfg = TransformerConfig(width=width, blocks=blocks, heads=heads)
    stack = AttentionStack(cfg, store, "enc", np.random.default_rng(seed))
    return stack, store


def test_config_rejects_indivisible_width():
    with pytest.raises(ValueError, match="divisible"):
        TransformerConfig(width=8, heads=3).validate()


def test_config_rejects_zero_blocks():
    with pytest.raises(ValueError, match="block"):
        TransformerConfig(width=8, blocks=0, heads=2).validate()


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
    # Garbage at masked positions must not leak into any valid position,
    # bitwise, even across multiple blocks.
    stack, _ = make_stack(width=8, blocks=2, heads=2, seed=11)
    B, L = 2, 4
    valid = np.array([[True, True, False, True],
                      [True, False, True, True]])
    x = rng.standard_normal((B, L, 8))
    base = stack(Tensor(x), valid=valid).data.copy()
    pert = x.copy()
    pert[~valid] = 1e6
    out = stack(Tensor(pert), valid=valid).data
    assert np.array_equal(out[valid], base[valid])


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
    # Loss over valid positions only: inputs at masked slots get exactly
    # zero gradient because their attention weight is exactly 0.0.
    stack, store = make_stack(width=8, blocks=2, heads=2, seed=25)
    B, L = 2, 4
    valid = np.array([[True, True, False, False],
                      [True, False, True, False]])
    xt = Tensor(rng.standard_normal((B, L, 8)))
    store.zero_grads()
    with Tape() as tape:
        out = stack(xt, valid=valid)
        keep = ad.mul_const(out, valid[:, :, None].astype(float))
        loss = ad.sum_all(keep)
    tape.backward(loss)
    assert np.all(xt.grad[~valid] == 0.0)
    assert np.any(xt.grad[valid] != 0.0)
