"""Gradient correctness of every primitive op against central finite
differences, plus the tape-level contracts (scalar seed, accumulation,
exact-zero masked gradients). The last section checks the test-only ops of
`reference_ops` the same way."""

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import MASK_FILL, Tape, Tensor

from conftest import check_op_gradients, fd_gradient
from reference_ops import matmul, softmax


def t(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def test_identity_gradient_is_one():
    p = Tensor(3.0)
    with Tape() as tape:
        out = ad.mul_const(p, 1.0)
    tape.backward(out)
    assert p.grad == 1.0


def test_backward_requires_scalar(rng):
    x = t(rng, 3)
    with Tape() as tape:
        y = ad.mul_const(x, -1.0)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_ops_outside_tape_do_not_record(rng):
    x = t(rng, 4)
    y = ad.mul_const(x, -1.0)  # no active tape
    with Tape() as tape:
        z = ad.sum_all(ad.mul_const(x, 2.0))
    tape.backward(z)
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))


def test_gradient_accumulates_across_reuse(rng):
    x = t(rng, 3)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(x, x))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_add_scale_grads(rng):
    a, b = t(rng, 2, 3), t(rng, 2, 3)
    check_op_gradients(lambda: ad.add(a, b), [a, b], rng)
    check_op_gradients(lambda: ad.mul_const(a, -1.7), [a], rng)


def test_add_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        ad.add(t(rng, 2, 3), t(rng, 3, 2))


def test_mul_and_mul_const(rng):
    a = t(rng, 3, 4)
    c = rng.standard_normal((3, 1))  # broadcasting constant
    check_op_gradients(lambda: ad.mul_const(a, c), [a], rng)
    m = rng.random((3, 4)) < 0.5
    check_op_gradients(lambda: ad.mul_const(a, m.astype(float)), [a], rng)
    # a constant that would widen a is refused, as add refuses a mismatch
    for wide in (np.ones((2, 3, 4)), np.ones((3, 4, 1)), np.ones((3, 5))):
        with pytest.raises(ValueError):
            ad.mul_const(a, wide)
    with pytest.raises(ValueError, match="widens"):
        ad.mul_const(t(rng, 4), np.ones((3, 1)))


def test_reshape_concat_index(rng):
    a = t(rng, 2, 3, 4)
    check_op_gradients(lambda: ad.reshape(a, (6, 4)), [a], rng)
    b = t(rng, 2, 2, 4)
    check_op_gradients(lambda: ad.concat([a, b], axis=1), [a, b], rng)
    check_op_gradients(lambda: ad.index(a, np.s_[:, 1:3]), [a], rng)
    # an integer key drops its axis
    one = ad.index(a, np.s_[:, 2])
    np.testing.assert_array_equal(one.data, a.data[:, 2])
    check_op_gradients(lambda: ad.index(a, np.s_[:, 2]), [a], rng)
    # an empty slice concatenates to nothing and sends back zeros
    a.grad = None
    with Tape() as tape:
        loss = ad.sum_all(ad.concat([b, ad.index(a, np.s_[:, :0])], axis=1))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, np.zeros_like(a.data))


def test_gather_rows_with_repeats(rng):
    w = t(rng, 6, 3)
    idx = np.array([0, 2, 2, 5, 0])
    out = ad.gather_rows(w, idx)
    np.testing.assert_array_equal(out.data, w.data[idx])
    check_op_gradients(lambda: ad.gather_rows(w, idx), [w], rng)


def test_index_array_keys_sum_repeats(rng):
    a = t(rng, 5, 3)
    idx = np.array([4, 0, 0, 2])
    check_op_gradients(lambda: ad.index(a, idx), [a], rng)
    # row 0 is taken twice, so its gradient is the sum of both reads
    a.grad = None
    with Tape() as tape:
        loss = ad.sum_all(ad.index(a, idx))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad[:, 0], [2.0, 0.0, 1.0, 0.0, 1.0])
    b = t(rng, 3, 4, 2)
    pos = np.array([[1, 3, 0], [2, 2, 1], [0, 0, 3]])
    key = (np.arange(3)[:, None], pos)
    out = ad.index(b, key)
    for r in range(3):
        for i in range(3):
            np.testing.assert_array_equal(out.data[r, i], b.data[r, pos[r, i]])
    check_op_gradients(lambda: ad.index(b, key), [b], rng)


def test_index_unique_keys_assign_like_add_at(rng):
    # a key that reads no entry twice may assign its gradient: bitwise the
    # same as summing into zeros
    a = t(rng, 6, 4, 3)
    keys = {"permutation": rng.permutation(6),
            "row subset": np.array([5, 1, 3]),
            "per-row permutations": (np.arange(6)[:, None],
                                     np.argsort(rng.random((6, 4)), axis=1)),
            "one position per row": (np.arange(6), rng.integers(0, 4, size=6))}
    for name, key in keys.items():
        g = rng.standard_normal(a.data[key].shape)
        want = np.zeros(a.data.shape)
        np.add.at(want, key, g)
        a.grad = None
        with Tape() as tape:
            loss = ad.sum_all(ad.mul_const(ad.index(a, key, unique=True), g))
        tape.backward(loss)
        assert a.grad.tobytes() == want.tobytes(), name


def test_categorical_nll(rng):
    # with W the identity the logits are cond itself. The last row's code
    # takes all the mass: exp(-800) underflows, so its loss and its
    # gradients are exactly 0
    cond = Tensor(np.vstack([rng.standard_normal((3, 6)),
                             [0.0, 0.0, 800.0, 0.0, -2.0, 0.0]]))
    eye = Tensor(np.eye(6))
    codes = np.array([0, 5, 3, 2])
    out = ad.categorical_nll(cond, eye, codes)
    shifted = cond.data - cond.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(out.data, -(shifted - lse)[np.arange(4), codes])
    assert out.data[3] == 0.0
    with Tape() as tape:
        loss = ad.sum_all(ad.categorical_nll(cond, eye, codes))
    tape.backward(loss)
    assert np.all(cond.grad[3] == 0.0)
    # finite differences for both cond and the (K, d) table
    cond, w = t(rng, 4, 3), t(rng, 5, 3)
    codes = np.array([4, 0, 2, 4])
    out = ad.categorical_nll(cond, w, codes)
    logits = cond.data @ w.data.T
    ref = np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(4), codes]
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)
    check_op_gradients(lambda: ad.categorical_nll(cond, w, codes), [cond, w], rng)
    # a one-category leaf: every loss and gradient is exactly 0
    cond, one = t(rng, 3, 4), t(rng, 1, 4)
    zeros = np.zeros(3, dtype=np.int64)
    assert np.array_equal(ad.categorical_nll(cond, one, zeros).data, np.zeros(3))
    check_op_gradients(lambda: ad.categorical_nll(cond, one, zeros), [cond, one], rng)
    assert np.all(cond.grad == 0.0) and np.all(one.grad == 0.0)


def test_reductions_and_broadcast(rng):
    a = t(rng, 3, 4, 2)
    check_op_gradients(lambda: ad.sum_axis(a, 1), [a], rng)
    check_op_gradients(lambda: ad.sum_all(a), [a], rng)
    check_op_gradients(lambda: ad.mean_all(a), [a], rng)


def test_stack_columns(rng):
    cols = [t(rng, 3, 2), t(rng, 3, 2), t(rng, 3, 2)]
    out = ad.stack_columns(cols)
    assert out.data.shape == (3, 3, 2)
    for i, c in enumerate(cols):
        np.testing.assert_array_equal(out.data[:, i], c.data)
    check_op_gradients(lambda: ad.stack_columns(cols), cols, rng)


def test_cross_entropy_composite_fd(rng):
    """Cross-entropy of an embedding lookup scored against a second table,
    checked against finite differences end to end."""
    w = t(rng, 4, 6)
    table = t(rng, 4, 6)
    idx = np.array([1, 3, 0])
    target = np.array([2, 0, 3])

    def build():
        return ad.categorical_nll(ad.gather_rows(w, idx), table, target)

    check_op_gradients(build, [w, table], rng)


def test_fd_helper_sanity(rng):
    # the checker itself must flag a wrong gradient
    a = t(rng, 2, 2)
    analytic = 2.0 * a.data  # d/da sum(a^2)
    numeric = fd_gradient(lambda: float((a.data ** 2).sum()), a)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6)


# -- the reference block's ops (reference_ops) ------------------------------------

def test_matmul_matches_numpy(rng):
    a, b = t(rng, 4, 3), t(rng, 3, 5)
    np.testing.assert_allclose(matmul(a, b).data, a.data @ b.data)
    check_op_gradients(lambda: matmul(a, b), [a, b], rng)


def test_matmul_batched_and_shared_rhs(rng):
    # (B, L, k) @ (k, n): the 2-D right operand is shared across the batch
    a, w = t(rng, 2, 3, 4), t(rng, 4, 5)
    out = matmul(a, w)
    np.testing.assert_allclose(out.data, a.data @ w.data)
    check_op_gradients(lambda: matmul(a, w), [a, w], rng)
    # (B, L, k) @ (B, k, n): fully batched
    u, v = t(rng, 2, 3, 4), t(rng, 2, 4, 3)
    check_op_gradients(lambda: matmul(u, v), [u, v], rng)
    # (B, H, L, k) @ (B, H, M, k)^T: attention scores against the keys
    q, k = t(rng, 2, 2, 3, 4), t(rng, 2, 2, 5, 4)
    out = matmul(q, k, transpose_b=True)
    np.testing.assert_array_equal(out.data, q.data @ np.swapaxes(k.data, -1, -2))
    check_op_gradients(lambda: matmul(q, k, transpose_b=True), [q, k], rng)
    # (B, L, k) @ (n, k)^T: a shared 2-D right operand
    a, w = t(rng, 2, 3, 4), t(rng, 5, 4)
    check_op_gradients(lambda: matmul(a, w, transpose_b=True), [a, w], rng)


def test_softmax_rows_sum_to_one(rng):
    z = t(rng, 5, 7)
    s = softmax(z)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), rtol=0, atol=1e-15)


def test_softmax_sum_gradient_is_zero(rng):
    z = t(rng, 4, 6)
    with Tape() as tape:
        loss = ad.sum_all(softmax(z))
    tape.backward(loss)
    np.testing.assert_allclose(z.grad, np.zeros_like(z.data), atol=1e-12)


def test_softmax_grads(rng):
    z = t(rng, 3, 5)
    check_op_gradients(lambda: softmax(z), [z], rng)
    # 3-D variants as used inside attention
    y = t(rng, 2, 3, 4)
    check_op_gradients(lambda: softmax(y), [y], rng)


def test_blocked_softmax_value_and_exact_zero_grads(rng):
    a = t(rng, 3, 4)
    mask = np.array([[True, False, False, True]] * 3)
    out = softmax(a, mask)
    assert (out.data[mask] == 0.0).all()
    filled = Tensor(np.where(mask, MASK_FILL, a.data))
    np.testing.assert_array_equal(out.data, softmax(filled).data)
    weights = rng.standard_normal((3, 4))
    a.grad = None
    with Tape() as tape:
        loss = ad.sum_all(ad.mul_const(softmax(a, mask), weights))
    tape.backward(loss)
    assert (a.grad[mask] == 0.0).all()
    assert (a.grad[~mask] != 0.0).all()
    check_op_gradients(lambda: softmax(a, mask), [a], rng)
    # a mask that broadcasts over a leading axis, as attention's causal one
    y = t(rng, 2, 3, 3)
    causal = ~np.tril(np.ones((3, 3), dtype=bool))[None]
    check_op_gradients(lambda: softmax(y, causal), [y], rng)
