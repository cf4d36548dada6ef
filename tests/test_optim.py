"""Optimizer semantics: Adam over a path-addressed store."""

import numpy as np
import pytest

from nestgen.optim import BETA1, BETA2, EPS, Adam
from nestgen.params import ParamStore


def scalar_store(value):
    store = ParamStore()
    store.allocate("p", (1,), np.random.default_rng(0))
    store["p"].data[:] = value
    return store


def test_zero_gradients_leave_params_unchanged():
    rng = np.random.default_rng(4)
    store = ParamStore()
    store.allocate("a/w", (3, 2), rng)
    store.allocate("b", (4,), rng)
    before = store.state_dict()
    Adam(lr=0.5).step(store, {p: np.zeros_like(t.data) for p, t in store.items()})
    for path, arr in before.items():
        assert np.array_equal(store[path].data, arr)


def test_adam_minimizes_quadratic():
    # f(p) = p^2, gradient 2p; 200 Adam steps at lr=0.1 from p0=1
    # must land within 1e-2 of the minimum.
    store = scalar_store(1.0)
    opt = Adam(lr=0.1)
    for _ in range(200):
        opt.step(store, {"p": 2.0 * store["p"].data})
    assert abs(store["p"].data[0]) < 1e-2


def test_adam_first_step_size_is_lr():
    # With bias correction the very first update has magnitude ~lr
    # regardless of gradient scale.
    for g in (1e-6, 1.0, 1e6):
        store = scalar_store(0.0)
        Adam(lr=0.1).step(store, {"p": np.array([g])})
        expected = -0.1 * g / (g + 1e-8)
        assert store["p"].data[0] == pytest.approx(expected, rel=1e-12)


def test_adam_matches_reference_formula():
    # Two hand-rolled steps of the textbook update at the default constants.
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    assert (BETA1, BETA2, EPS) == (b1, b2, eps)
    grads = [np.array([0.3]), np.array([-0.7])]
    p = np.array([0.5])
    m = np.zeros(1)
    v = np.zeros(1)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    store = scalar_store(0.5)
    opt = Adam(lr=lr)
    for g in grads:
        opt.step(store, {"p": g.copy()})
    np.testing.assert_allclose(store["p"].data, p, rtol=1e-12)


def test_non_finite_gradient_names_parameter():
    store = scalar_store(0.0)
    opt = Adam(lr=0.1)
    with pytest.raises(FloatingPointError, match="p"):
        opt.step(store, {"p": np.array([np.nan])})
    with pytest.raises(FloatingPointError, match="non-finite"):
        opt.step(store, {"p": np.array([np.inf])})


def test_shape_mismatch_names_parameter():
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.allocate("layer/w", (3,), rng)
    with pytest.raises(ValueError, match="layer/w"):
        Adam(lr=0.1).step(store, {"layer/w": np.zeros((1,))})


def test_partial_updates_touch_only_named_paths():
    rng = np.random.default_rng(9)
    store = ParamStore()
    store.allocate("a", (2,), rng)
    store.allocate("b", (2,), rng)
    b_before = store["b"].data.copy()
    Adam(lr=0.1).step(store, {"a": np.ones(2)})
    assert np.array_equal(store["b"].data, b_before)
    assert not np.array_equal(store["a"].data, store["b"].data)
