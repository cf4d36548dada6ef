"""Mini-batch fitting, run logs, and the differentially private step."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.batches import LeafBatch, ListBatch, StructBatch
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import DpConfig, TrainConfig, dp_step, epoch_means, fit

from conftest import dp_row


def compiled(doc, seed=0, **kw):
    kw.setdefault("width", 8)
    kw.setdefault("blocks", 1)
    kw.setdefault("heads", 2)
    return compile_schema(parse_schema(doc), seed=seed, **kw)


ONE_CAT = {"type": "record", "name": "r",
           "fields": [{"name": "a", "type": "enum", "symbols": ["only"]}]}

PAIR = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum", "symbols": ["0", "1"]},
    {"name": "b", "type": "enum", "symbols": ["0", "1"]}]}

SHUFFLED = {"type": "record", "name": "r", "fields": [
    {"name": "l", "type": "array", "max_len": 2, "shuffled": True,
     "items": {"name": "v", "type": "enum", "symbols": ["x", "y"]}}]}


def pair_batch(counts):
    """StructBatch for the 2x2 joint with exact cell counts, keyed (a, b)."""
    a, b = [], []
    for (i, j), c in counts.items():
        a += [i] * c
        b += [j] * c
    return StructBatch({"a": LeafBatch(np.array(a, dtype=np.int64)),
                        "b": LeafBatch(np.array(b, dtype=np.int64))})


def shuffled_batch(rng, n):
    lengths = rng.integers(0, 3, size=n)
    values = rng.integers(0, 2, size=int(lengths.sum()))
    return StructBatch({"l": ListBatch(lengths, LeafBatch(values))})


# -- config validation ---------------------------------------------------------

def test_train_config_validation():
    for bad in [{"epochs": 0}, {"batch_size": 0}, {"lr": 0.0}, {"shuffle_passes": 0}]:
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig()


def test_dp_config_validation():
    with pytest.raises(ValueError, match="clip"):
        DpConfig(clip_norm=0.0)
    with pytest.raises(ValueError, match="noise"):
        DpConfig(noise_multiplier=-0.1)
    DpConfig(noise_multiplier=0.0)


@pytest.mark.parametrize("field", ["lr", "clip_norm", "noise_multiplier"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_configs_reject_non_finite_values(field, value):
    config = TrainConfig if field == "lr" else DpConfig
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("config,field", [(TrainConfig(), "epochs"), (TrainConfig(), "lr"),
                                          (DpConfig(), "clip_norm"),
                                          (DpConfig(), "noise_multiplier")])
def test_configs_are_checked_once_and_frozen(config, field):
    # a config is validated when built, so no field may change afterwards
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, 0)


# -- the private step -----------------------------------------------------------

def test_dp_step_clips_every_contribution():
    rng = np.random.default_rng(7)
    C = 1e-3
    dp = DpConfig(clip_norm=C, noise_multiplier=0.0)
    rows = rng.normal(size=(200, 50))
    # spread row norms from far below to far above the clip threshold
    targets = np.geomspace(1e-6, 10 * C, 200)
    rows *= (targets / np.linalg.norm(rows, axis=1))[:, None]
    singles = np.stack([dp_row(rows[i:i + 1], dp, rng)
                        for i in range(200)])
    norms = np.linalg.norm(singles, axis=1)
    assert np.all(norms <= C + 1e-9)
    # rows already inside the ball come back bitwise unchanged
    inside = targets <= C
    assert np.array_equal(singles[inside], rows[inside])
    # aggregation is the mean of the clipped rows
    combined = dp_row(rows, dp, rng)
    np.testing.assert_allclose(combined, singles.mean(axis=0), rtol=1e-12)


def test_dp_step_scales_long_row_onto_sphere():
    C = 1e-3
    dp = DpConfig(clip_norm=C, noise_multiplier=0.0)
    row = np.full((1, 16), 1.0)
    row *= 10 * C / np.linalg.norm(row)
    out = dp_row(row, dp, np.random.default_rng(0))
    assert abs(np.linalg.norm(out) - C) <= 1e-9


def test_dp_step_zero_row_is_safe():
    dp = DpConfig(clip_norm=1e-3, noise_multiplier=0.0)
    out = dp_row(np.zeros((4, 8)), dp, np.random.default_rng(0))
    assert np.array_equal(out, np.zeros(8))


def test_dp_step_noise_scale():
    B, D = 1024, 10000
    C, sigma = 1e-3, 1.08
    dp = DpConfig(clip_norm=C, noise_multiplier=sigma)
    out = dp_row(np.zeros((B, D)), dp, np.random.default_rng(3))
    want = sigma * C / B
    assert abs(out.std() - want) / want < 0.05
    assert abs(out.mean()) < 5 * want / math.sqrt(D)


def test_dp_step_noiseless_is_deterministic():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(32, 12))
    dp = DpConfig(clip_norm=0.5, noise_multiplier=0.0)
    a = dp_row(rows, dp, np.random.default_rng(1))
    b = dp_row(rows, dp, np.random.default_rng(2))
    assert np.array_equal(a, b)


def test_dp_step_returns_one_flat_vector():
    # two parameters, each read once per example: the result lays them out
    # in grads' order, as the store's flat vector does, and the noise is one
    # draw over the whole vector
    rng = np.random.default_rng(5)
    B, C, sigma = 6, 0.5, 1.3
    params = [ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros((1, 5)))]
    ex = ad.ExampleGrads(B, params)
    ex.add(params[0], rng.normal(size=(B, 3)), rng.normal(size=(B, 4)))
    ex.add(params[1], np.ones((B, 1)), rng.normal(size=(B, 5)))
    quiet = dp_step(ex, DpConfig(clip_norm=C, noise_multiplier=0.0), np.random.default_rng(9))
    noisy = dp_step(ex, DpConfig(clip_norm=C, noise_multiplier=sigma),
                    np.random.default_rng(9))
    assert quiet.shape == noisy.shape == (17,)
    whole = np.random.default_rng(9).normal(0.0, sigma * C / B, size=17)
    assert np.array_equal(noisy, quiet + whole)


# -- fit ---------------------------------------------------------------------------

def test_fit_on_certain_data_does_not_drift():
    codec, store = compiled(ONE_CAT)
    before = store.views(store.flat.copy())
    data = StructBatch({"a": LeafBatch(np.zeros(16, dtype=np.int64))})
    history = fit(codec, store, data, TrainConfig(epochs=3, batch_size=8, lr=0.1))
    assert all(rec["loss"] == 0.0 for rec in history)
    after = store.views(store.flat.copy())
    assert before.keys() == after.keys()
    for k in before:
        assert np.array_equal(before[k], after[k]), k


def test_fit_history_shape_and_run_log(tmp_path):
    codec, store = compiled(PAIR)
    data = pair_batch({(0, 0): 4, (0, 1): 3, (1, 0): 2, (1, 1): 1})
    log_path = tmp_path / "run.jsonl"
    cfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3)
    with open(log_path, "w", encoding="utf-8") as log:
        history = fit(codec, store, data, cfg, log=log)
    assert len(history) == 3 * math.ceil(10 / 4)
    for i, rec in enumerate(history):
        assert set(rec) == {"epoch", "batch", "loss", "grad_norm", "dp"}
        assert rec["epoch"] == i // 3 and rec["batch"] == i % 3
        assert rec["dp"] is None
        assert math.isfinite(rec["loss"]) and math.isfinite(rec["grad_norm"])
    logged = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert logged == history


def test_fit_is_reproducible():
    data = pair_batch({(0, 0): 5, (0, 1): 2, (1, 0): 2, (1, 1): 5})
    runs = []
    for _ in range(2):
        codec, store = compiled(PAIR, seed=4)
        hist = fit(codec, store, data,
                   TrainConfig(epochs=4, batch_size=4, lr=0.01, seed=9))
        runs.append((hist, store.views(store.flat.copy())))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_fit_seed_changes_batch_order():
    data = pair_batch({(0, 0): 5, (0, 1): 2, (1, 0): 2, (1, 1): 5})
    hists = []
    for seed in (0, 1):
        codec, store = compiled(PAIR, seed=4)
        hists.append(fit(codec, store, data,
                         TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=seed)))
    assert [r["loss"] for r in hists[0]] != [r["loss"] for r in hists[1]]


def test_fit_converges_to_joint_entropy():
    codec, store = compiled(PAIR, seed=2)
    data = pair_batch({(0, 0): 400, (0, 1): 100, (1, 0): 100, (1, 1): 400})
    cfg = TrainConfig(epochs=400, batch_size=1000, lr=0.05, seed=0)
    history = fit(codec, store, data, cfg)
    p = np.array([0.4, 0.1, 0.1, 0.4])
    entropy = float(-(p * np.log(p)).sum())
    assert abs(history[-1]["loss"] - entropy) < 0.02
    means = epoch_means(history)
    assert means[-1] < means[0]


def test_shuffle_passes_need_a_shuffled_node():
    codec, store = compiled(PAIR)
    data = pair_batch({(0, 0): 4, (1, 1): 4})
    with pytest.raises(ValueError, match="shuffled"):
        fit(codec, store, data, TrainConfig(epochs=1, shuffle_passes=2))


def test_shuffle_passes_run_on_shuffled_schema():
    codec, store = compiled(SHUFFLED)
    data = shuffled_batch(np.random.default_rng(0), 12)
    cfg = TrainConfig(epochs=2, batch_size=6, lr=0.01, shuffle_passes=3)
    history = fit(codec, store, data, cfg)
    assert len(history) == 4
    assert all(math.isfinite(rec["loss"]) for rec in history)


def test_dp_fit_records_parameters_and_updates():
    codec, store = compiled(PAIR, seed=4)
    before = store.views(store.flat.copy())
    data = pair_batch({(0, 0): 6, (0, 1): 2, (1, 0): 2, (1, 1): 6})
    dp = DpConfig(clip_norm=1.0, noise_multiplier=0.1)
    history = fit(codec, store, data,
                  TrainConfig(epochs=1, batch_size=8, lr=0.01), dp=dp)
    assert all(rec["dp"] == {"C": 1.0, "sigma": 0.1} for rec in history)
    changed = any(not np.array_equal(before[k], store.views(store.flat.copy())[k])
                  for k in before)
    assert changed


def test_dp_noiseless_full_clip_matches_plain_mean():
    # a clip norm far above any gradient makes the dp path an exact mean,
    # so with zero noise it must reproduce the plain training trajectory
    data = pair_batch({(0, 0): 5, (0, 1): 3, (1, 0): 3, (1, 1): 5})
    trajectories = []
    for dp in (None, DpConfig(clip_norm=1e9, noise_multiplier=0.0)):
        codec, store = compiled(PAIR, seed=4)
        hist = fit(codec, store, data,
                   TrainConfig(epochs=2, batch_size=16, lr=0.01), dp=dp)
        trajectories.append(([r["loss"] for r in hist], store.views(store.flat.copy())))
    assert trajectories[0][0] == trajectories[1][0]
    for k in trajectories[0][1]:
        np.testing.assert_allclose(trajectories[0][1][k],
                                   trajectories[1][1][k], rtol=1e-9)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_loss_aborts_with_step_position():
    codec, store = compiled(PAIR)
    weights = [p for p in store.paths() if p.endswith("/wq")]
    store[weights[0]].data[:] = np.inf
    data = pair_batch({(0, 0): 4, (1, 1): 4})
    with pytest.raises(FloatingPointError, match="epoch 0 batch 0"):
        fit(codec, store, data, TrainConfig(epochs=1, batch_size=8))


def test_fit_rejects_empty_dataset():
    codec, store = compiled(PAIR)
    data = StructBatch({"a": LeafBatch(np.zeros(0, dtype=np.int64)),
                        "b": LeafBatch(np.zeros(0, dtype=np.int64))})
    with pytest.raises(ValueError, match="empty"):
        fit(codec, store, data, TrainConfig(epochs=1))


def test_epoch_means():
    history = [{"epoch": 0, "loss": 1.0}, {"epoch": 0, "loss": 3.0},
               {"epoch": 1, "loss": 2.0}]
    assert epoch_means(history) == [2.0, 2.0]
