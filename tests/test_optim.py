"""Optimizer semantics: Adam over a packed store, and the flat layout the
optimizer and the DP step share, checked bitwise against the per-parameter
references in reference_ops."""

import numpy as np
import pytest

import reference_ops as ref
from nestgen.artifact import load_model, save_model
from nestgen.batches import take
from nestgen.codecs.base import per_example_gradients, train_step
from nestgen.data import ingest_records
from nestgen.optim import BETA1, BETA2, EPS, Adam
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import DpConfig, TrainConfig, dp_step, fit
from test_data import load_workloads

from conftest import random_batch


def scalar_store(value):
    store = ParamStore()
    store.allocate("p", (1,), np.random.default_rng(0))
    store.pack()
    store["p"].data[:] = value
    return store


def two_param_store():
    rng = np.random.default_rng(4)
    store = ParamStore()
    store.allocate("a/w", (3, 2), rng)
    store.allocate("b", (4,), rng)
    store.pack()
    return store


def assert_packed(store):
    assert store.flat.size == store.n_params()
    for path, t in store.items():
        assert np.shares_memory(t.data, store.flat), path
        assert np.array_equal(t.data.ravel(), store.flat[store.slices[path]]), path


def test_zero_gradients_leave_params_unchanged():
    store = two_param_store()
    before = store.views(store.flat.copy())
    Adam(lr=0.5).step(store, np.zeros_like(store.flat))
    for path, arr in before.items():
        assert np.array_equal(store[path].data, arr)


def test_adam_minimizes_quadratic():
    # f(p) = p^2, gradient 2p; 200 Adam steps at lr=0.1 from p0=1
    # must land within 1e-2 of the minimum.
    store = scalar_store(1.0)
    opt = Adam(lr=0.1)
    for _ in range(200):
        opt.step(store, 2.0 * store.flat)
    assert abs(store["p"].data[0]) < 1e-2


def test_adam_first_step_size_is_lr():
    # With bias correction the very first update has magnitude ~lr
    # regardless of gradient scale.
    for g in (1e-6, 1.0, 1e6):
        store = scalar_store(0.0)
        Adam(lr=0.1).step(store, np.array([g]))
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
        opt.step(store, g.copy())
    np.testing.assert_allclose(store["p"].data, p, rtol=1e-12)


def test_non_finite_gradient_names_parameter():
    # the first bad coordinate's parameter is named, and nothing moves
    store = two_param_store()
    before = store.flat.copy()
    opt = Adam(lr=0.1)
    for bad in (np.nan, np.inf, -np.inf):
        g = np.zeros_like(store.flat)
        g[store.slices["b"].start + 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite gradient for parameter b$"):
            opt.step(store, g)
    g[store.slices["a/w"].start] = np.nan
    with pytest.raises(FloatingPointError, match="parameter a/w$"):
        opt.step(store, g)
    assert np.array_equal(store.flat, before) and opt.step_count == 0


def test_shape_mismatch_names_parameter():
    store = two_param_store()
    with pytest.raises(ValueError, match=r"gradient of shape \(9,\) for 10 parameters"):
        Adam(lr=0.1).step(store, np.zeros(9))
    state = store.views(store.flat.copy())
    state["a/w"] = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"parameter a/w: expected float64 \(3, 2\)"):
        store.load_state(state)


# -- the flat layout ------------------------------------------------------------

DOC = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "cardinality": 3},
    {"name": "l", "type": "array", "max_len": 2,
     "items": {"type": "enum", "name": "v", "cardinality": 4}}]}


def test_compile_packs_every_parameter_into_one_vector():
    codec, store = compile_schema(parse_schema(DOC), width=8, blocks=1, heads=2, seed=0)
    assert_packed(store)
    assert [sl.start for sl in store.slices.values()] == \
        [0, *np.cumsum([t.data.size for _, t in store.items()])[:-1]]
    with pytest.raises(RuntimeError, match="already packed"):
        store.allocate("r/extra", (2,), np.random.default_rng(0))


def test_gradients_fill_one_reused_vector():
    codec, store = compile_schema(parse_schema(DOC), width=8, blocks=1, heads=2, seed=1)
    batch = random_batch(codec, 5, np.random.default_rng(2))
    _, g = train_step(codec, store, batch)
    assert g is store.grad and g.shape == store.flat.shape
    by_path = store.views(g)
    for path, t in store.items():
        assert np.array_equal(by_path[path], t.grad), path
    # a parameter the loss does not read gets zeros, even where the last
    # call left values
    store.zero_grads()
    store["r/a/W"].grad = np.ones(store["r/a/W"].shape)
    g = store.gradients()
    assert np.all(store.views(g)["r/a/W"] == 1.0)
    assert np.count_nonzero(g) == store["r/a/W"].data.size


def test_fit_load_and_load_state_keep_the_views(tmp_path):
    rows = [{"a": "x", "l": ["p", "q"]}, {"a": "y", "l": []}, {"a": "x", "l": ["q"]}]
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"},
        {"name": "l", "type": "array", "max_len": 2, "items": {"type": "enum", "name": "v"}}]})
    batch, tf, _ = ingest_records(rows, schema)
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2, seed=0)
    start = store.flat.copy()
    fit(codec, store, batch, TrainConfig(epochs=2, batch_size=2, lr=0.01))
    assert_packed(store)
    assert not np.array_equal(store.flat, start)
    fit(codec, store, batch, TrainConfig(epochs=1, batch_size=2, lr=0.01), dp=DpConfig())
    assert_packed(store)
    save_model(tmp_path / "m.zip", store, tf, {"width": 8, "blocks": 1, "heads": 2})
    _, loaded, _, _, _ = load_model(tmp_path / "m.zip")
    assert_packed(loaded)
    assert np.array_equal(loaded.flat, store.flat)
    state = {p: np.full(t.shape, 0.5) for p, t in loaded.items()}
    loaded.load_state(state)
    assert_packed(loaded)
    assert np.all(loaded.flat == 0.5)


def test_flat_adam_matches_per_parameter_adam_bitwise():
    # several steps, one parameter's gradient staying zero throughout
    rng = np.random.default_rng(8)
    codec, store = compile_schema(parse_schema(DOC), width=8, blocks=1, heads=2, seed=3)
    _, twin = compile_schema(parse_schema(DOC), width=8, blocks=1, heads=2, seed=3)
    opt, ref_opt = Adam(lr=0.03), ref.Adam(lr=0.03)
    still, start = "r/l/v/W", store.flat.copy()
    for _ in range(6):
        g = rng.normal(size=store.flat.shape) * rng.choice([1e-6, 1.0, 1e3])
        g[store.slices[still]] = 0.0
        ref_opt.step(twin, store.views(g.copy()))
        opt.step(store, g)
        assert np.array_equal(store.flat, twin.flat)
    assert np.array_equal(store[still].data, store.views(start)[still])


@pytest.mark.parametrize("sigma", [0.0, 1.08])
def test_flat_dp_step_matches_per_parameter_dp_step_bitwise(sigma):
    codec, store = compile_schema(parse_schema(DOC), width=8, blocks=1, heads=2, seed=4)
    batch = random_batch(codec, 6, np.random.default_rng(5))
    _, ex = per_example_gradients(codec, store, batch)
    dp = DpConfig(clip_norm=0.05, noise_multiplier=sigma)
    flat = dp_step(ex, dp, np.random.default_rng(6))
    blocks = ref.dp_step(ex, dp, np.random.default_rng(6))
    assert [b.shape for b in blocks] == [t.shape for _, t in store.items()]
    assert np.array_equal(flat, np.concatenate([b.ravel() for b in blocks]))
    assert np.array_equal(ex.clipped_sums(np.ones(6)),
                          np.concatenate([b.ravel() for b in ref.clipped_sums(ex, np.ones(6))]))


@pytest.mark.parametrize("name", ["nested_tx", "long_sets", "flat_wide"])
def test_benchmark_models_step_like_the_references(name):
    # one plain and one DP step on each workload's seed-1 model, as `nestgen
    # fit` runs them, against the per-parameter Adam and DP step
    workloads = load_workloads()
    w = workloads.WORKLOADS[name]
    records, _ = workloads.draw(w, 1)
    batch, tf, _ = ingest_records(records, parse_schema(w.schema))
    model = {k.strip("-"): int(v) for k, v in zip(w.model[::2], w.model[1::2])}
    fit_flags = dict(zip(w.fit[::2], w.fit[1::2]))
    codec, store = compile_schema(tf.schema, seed=1, tables=tf.tables, **model)
    _, twin = compile_schema(tf.schema, seed=1, tables=tf.tables, **model)
    lr = float(fit_flags["--lr"])
    opt, ref_opt = Adam(lr), ref.Adam(lr)

    plain = take(batch, np.arange(int(fit_flags["--batch-size"])))
    passes = int(fit_flags.get("--shuffle-passes", 1))
    _, g = train_step(codec, store, plain, rng=np.random.default_rng(7), passes=passes)
    ref_opt.step(twin, store.views(g.copy()))
    opt.step(store, g)
    assert np.array_equal(store.flat, twin.flat)

    private = take(batch, np.arange(int(dict(zip(w.dp_fit[::2], w.dp_fit[1::2]))["--batch-size"])))
    _, ex = per_example_gradients(codec, store, private)
    noisy = dp_step(ex, DpConfig(), np.random.default_rng(9))
    blocks = ref.dp_step(ex, DpConfig(), np.random.default_rng(9))
    assert np.array_equal(noisy, np.concatenate([b.ravel() for b in blocks]))
    ref_opt.step(twin, dict(zip(twin.paths(), blocks)))
    opt.step(store, noisy)
    assert np.array_equal(store.flat, twin.flat)
