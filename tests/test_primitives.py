"""Leaf codecs: categorical encode/score/sample and quantile binning."""

import numpy as np
import pytest

from nestgen.autodiff import Tensor
from nestgen.batches import LeafBatch
from nestgen.codecs.primitives import CategoricalCodec, NumericalCodec, QuantileTable
from nestgen.params import ParamStore

from conftest import LeafSpy


def make_cat(n, d, seed=0, path="f"):
    store = ParamStore()
    codec = CategoricalCodec(path, n, d, store, np.random.default_rng(seed))
    return codec, store


def scores(codec, cond, codes):
    """The per-example terms of the scorer `encode` returns for codes, given
    conditioning rows cond (B, d)."""
    return codec.encode(LeafBatch(np.asarray(codes)))[1](cond)


def scored_logits(codec, cond):
    """The logits the scorer scores for conditioning rows cond (B, d)."""
    spy = LeafSpy(codec)
    _, score = codec.encode(LeafBatch(np.zeros(len(cond), dtype=np.int64)))
    spy.score(Tensor(cond), score)
    return spy.logits[codec.path]


def identity_logits(codec, logits):
    """Set W to the identity (padded with zero columns) and return the
    conditioning rows whose scored logits are exactly `logits`."""
    n, d = codec.w.data.shape
    codec.w.data[:] = np.eye(n, d)
    cond = np.zeros((len(logits), d))
    cond[:, :n] = logits
    return Tensor(cond)


class FixedUniform:
    """Stand-in rng whose random() returns preset values (for CDF checks)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, n):
        assert n == self.values.size
        return self.values


# -- categorical ------------------------------------------------------------

def test_encode_is_row_lookup():
    codec, _ = make_cat(3, 4)
    w = codec.w.data
    emb, ctx = codec.encode(LeafBatch(np.array([1, 0, 2, 1])))
    assert np.array_equal(emb.data, w[[1, 0, 2, 1]])
    again, _ = codec.encode(LeafBatch(np.array([0])))
    once, _ = codec.encode(LeafBatch(np.array([0])))
    assert np.array_equal(again.data, once.data)


def test_encode_rejects_out_of_range():
    codec, _ = make_cat(3, 4)
    with pytest.raises(ValueError, match="range"):
        codec.encode(LeafBatch(np.array([3])))
    with pytest.raises(ValueError, match="range"):
        codec.encode(LeafBatch(np.array([-1])))


def test_cardinality_must_be_positive():
    store = ParamStore()
    with pytest.raises(ValueError, match="positive"):
        CategoricalCodec("f", 0, 4, store, np.random.default_rng(0))


def test_decode_projects_onto_embeddings():
    codec, _ = make_cat(2, 2)
    codec.w.data[:] = np.eye(2)
    assert np.array_equal(scored_logits(codec, np.array([[1.0, 0.0]])), [[1.0, 0.0]])
    assert np.array_equal(scored_logits(codec, np.zeros((3, 2))), np.zeros((3, 2)))


def test_decode_matches_scalar_loop(rng):
    codec, _ = make_cat(5, 8, seed=2)
    c = rng.standard_normal((4, 8))
    logits = scored_logits(codec, c)
    for b in range(4):
        for k in range(5):
            expected = float(np.dot(c[b], codec.w.data[k]))
            assert logits[b, k] == pytest.approx(expected, rel=1e-12)


def test_decoded_softmax_normalizes(rng):
    codec, _ = make_cat(7, 16, seed=3)
    cond = Tensor(rng.standard_normal((10, 16)))
    e = np.exp(scored_logits(codec, cond.data))
    p = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    # and the scores of all categories are the log of that distribution
    terms = [scores(codec, cond, np.full(10, k)).data for k in range(7)]
    np.testing.assert_allclose(np.exp(-np.array(terms)).sum(axis=0), 1.0, atol=1e-12)


def test_loss_single_category_is_zero():
    codec, _ = make_cat(1, 4)
    cond = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
    loss = scores(codec, cond, np.zeros(5, dtype=np.int64))
    assert np.array_equal(loss.data, np.zeros(5))


def test_loss_uniform_logits_is_ln2():
    codec, _ = make_cat(2, 4)
    cond = identity_logits(codec, np.zeros((2, 2)))
    loss = scores(codec, cond, np.array([0, 1]))
    np.testing.assert_allclose(loss.data, np.log(2.0), rtol=1e-15)


def test_loss_stable_under_large_logits():
    codec, _ = make_cat(2, 4)
    cond = identity_logits(codec, np.array([[1000.0, 0.0]]))
    loss = scores(codec, cond, np.array([0]))
    assert np.isfinite(loss.data[0])
    assert 0.0 <= loss.data[0] < 1e-6
    # the improbable category keeps a finite, huge loss
    loss1 = scores(codec, cond, np.array([1]))
    assert np.isfinite(loss1.data[0])
    assert loss1.data[0] == pytest.approx(1000.0, rel=1e-9)


def test_loss_nonnegative_and_matches_formula(rng):
    codec, _ = make_cat(6, 8, seed=4)
    logits = rng.standard_normal((32, 6)) * 3.0
    codes = rng.integers(0, 6, size=32)
    loss = scores(codec, identity_logits(codec, logits), codes)
    assert np.all(loss.data >= 0.0)
    z = logits - logits.max(axis=1, keepdims=True)
    manual = -(z[np.arange(32), codes] - np.log(np.exp(z).sum(axis=1)))
    np.testing.assert_allclose(loss.data, manual, rtol=1e-12)


def test_sample_single_category_always_zero():
    codec, _ = make_cat(1, 4)
    batch, emb = codec.sample(np.zeros((100, 4)), np.random.default_rng(0))
    assert np.array_equal(batch.codes, np.zeros(100, dtype=np.int64))
    assert np.array_equal(emb.data, np.tile(codec.w.data[0], (100, 1)))


def test_sample_uniform_frequencies():
    # zero conditioning makes every logit zero; two categories must each
    # appear with frequency 0.5 within 3 sigma on 100k draws
    codec, _ = make_cat(2, 4, seed=5)
    batch, _ = codec.sample(np.zeros((100_000, 4)), np.random.default_rng(11))
    f0 = np.mean(batch.codes == 0)
    assert 0.49 <= f0 <= 0.51


def test_sample_follows_softmax_law():
    # width-1 trick pins the logits exactly: cond=1, W rows = target logits
    codec, _ = make_cat(3, 1, seed=6)
    codec.w.data[:] = np.array([[np.log(8.0)], [0.0], [0.0]])
    batch, _ = codec.sample(np.ones((100_000, 1)), np.random.default_rng(12))
    f0 = np.mean(batch.codes == 0)
    assert abs(f0 - 0.8) < 0.01


def test_sample_inverts_cdf_exactly():
    # p = (0.2, 0.3, 0.5): thresholds at 0.2 and 0.5
    codec, _ = make_cat(3, 1, seed=7)
    codec.w.data[:] = np.log(np.array([[0.2], [0.3], [0.5]]))
    u = [0.0, 0.19, 0.21, 0.49, 0.51, 0.999]
    batch, _ = codec.sample(np.ones((6, 1)), FixedUniform(u))
    assert batch.codes.tolist() == [0, 0, 1, 1, 2, 2]


def test_sample_deterministic_and_embeds_codes(rng):
    codec, _ = make_cat(4, 8, seed=8)
    cond = rng.standard_normal((50, 8))
    a, emb = codec.sample(cond, np.random.default_rng(99))
    b, _ = codec.sample(cond, np.random.default_rng(99))
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(emb.data, codec.w.data[a.codes])


# -- quantile table ----------------------------------------------------------

def test_fit_constant_column():
    t = QuantileTable.fit([5, 5, 5], 2)
    assert np.array_equal(t.q, [5.0, 5.0])


def test_fit_two_bins_are_min_max():
    t = QuantileTable.fit([1, 2, 3, 4], 2)
    assert np.array_equal(t.q, [1.0, 4.0])


def test_fit_uniform_quantiles():
    vals = np.random.default_rng(42).random(10_000)
    t = QuantileTable.fit(vals, 11)
    np.testing.assert_allclose(t.q, np.linspace(0.0, 1.0, 11), atol=0.02)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        QuantileTable.fit([], 2)
    with pytest.raises(ValueError, match="NaN"):
        QuantileTable.fit([1.0, np.nan], 2)
    with pytest.raises(ValueError, match="bins"):
        QuantileTable.fit([1.0, 2.0], 1)
    with pytest.raises(ValueError, match="non-decreasing"):
        QuantileTable(np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        QuantileTable(np.array([0.0, np.nan]))


def test_bin_nearest_with_ties_and_clamp():
    t = QuantileTable(np.array([1.0, 4.0]))
    assert t.bin_values([1.4]).tolist() == [0]
    assert t.bin_values([2.5]).tolist() == [0]   # tie goes to the lower index
    assert t.bin_values([2.51]).tolist() == [1]
    assert t.bin_values([100.0]).tolist() == [1]
    assert t.bin_values([-100.0]).tolist() == [0]
    with pytest.raises(ValueError, match="NaN"):
        t.bin_values([np.nan])


def test_bin_duplicates_snap_to_first_index():
    t = QuantileTable(np.array([1.0, 2.0, 2.0, 3.0]))
    assert t.bin_values([2.0]).tolist() == [1]
    assert t.bin_values([2.2]).tolist() == [1]
    assert t.bin_values([2.6]).tolist() == [3]


def test_bin_matches_brute_force(rng):
    # oracle: nearest quantile by scanning all distances, lowest index wins,
    # then snapped to the first occurrence of that quantile value
    for trial in range(20):
        base = np.sort(rng.integers(0, 6, size=rng.integers(2, 9)).astype(float))
        t = QuantileTable(base)
        xs = rng.uniform(-1.0, 7.0, size=64)
        got = t.bin_values(xs)
        for x, g in zip(xs, got):
            k = int(np.argmin(np.abs(x - base)))
            k = int(np.searchsorted(base, base[k], side="left"))
            assert g == k, (base, x, g, k)


def test_sample_values_degenerate_interval():
    t = QuantileTable(np.array([5.0, 5.0]))
    vals = t.sample_values(np.array([0, 1, 0]), np.random.default_rng(0))
    assert np.array_equal(vals, [5.0, 5.0, 5.0])


def test_sample_values_within_preimage_bracket():
    # each code draws only values that bin_values maps back to that code
    t = QuantileTable(np.array([0.0, 1.0, 10.0]))
    rng = np.random.default_rng(3)
    v0 = t.sample_values(np.zeros(1000, dtype=int), rng)
    assert np.all((v0 >= 0.0) & (v0 <= 0.5))
    v1 = t.sample_values(np.ones(1000, dtype=int), rng)
    assert np.all((v1 >= 0.5) & (v1 <= 5.5))
    v2 = t.sample_values(np.full(1000, 2), rng)
    assert np.all((v2 >= 5.5) & (v2 <= 10.0))
    for v, code in [(v0, 0), (v1, 1), (v2, 2)]:
        assert np.all(t.bin_values(v) == code)


def test_sample_values_mixture_mean():
    # uniform codes over q=(0,1,2): brackets U[0,.5], U[.5,1.5], U[1.5,2]
    # with means .25, 1, 1.75, so the mixture mean is exactly 1
    t = QuantileTable(np.array([0.0, 1.0, 2.0]))
    rng = np.random.default_rng(21)
    bins = rng.integers(0, 3, size=100_000)
    mean = t.sample_values(bins, rng).mean()
    assert abs(mean - 1.0) < 0.01


def test_integer_table_rounds():
    t = QuantileTable(np.array([0.0, 3.0]), integer=True)
    vals = t.sample_values(np.zeros(500, dtype=int), np.random.default_rng(4))
    assert np.array_equal(vals, np.rint(vals))
    assert np.all((vals >= 0) & (vals <= 3))
    assert np.array_equal(t.representative([0, 1]), [0.0, 3.0])


def test_representative_rebins_to_itself(rng):
    t = QuantileTable(np.sort(rng.standard_normal(8)))
    bins = np.arange(8)
    assert np.array_equal(t.bin_values(t.representative(bins)), bins)


# -- numerical codec ---------------------------------------------------------

def make_num(n_bins, d, table=None, seed=0):
    store = ParamStore()
    codec = NumericalCodec("x", n_bins, d, store, np.random.default_rng(seed),
                           table=table)
    return codec, store


def test_numerical_is_categorical_over_bins(rng):
    codec, store = make_num(4, 8)
    cat = CategoricalCodec("x", 4, 8, ParamStore(), np.random.default_rng(0))
    # same parameter path and initial values as a categorical codec, so
    # bundles load into either
    assert store.paths() == ["x/W"]
    assert np.array_equal(codec.w.data, cat.w.data)
    codes = LeafBatch(np.array([0, 3, 2]))
    emb, score = codec.encode(codes)
    assert np.array_equal(emb.data, codec.w.data[[0, 3, 2]])
    cond = Tensor(rng.standard_normal((3, 8)))
    loss = score(cond)
    ref = cat.encode(codes)[1](cond)
    assert np.array_equal(loss.data, ref.data)


def test_numerical_sample_needs_table():
    codec, _ = make_num(4, 8)
    with pytest.raises(RuntimeError, match="x"):
        codec.sample(np.zeros((1, 8)), np.random.default_rng(0))


def test_numerical_table_size_checked():
    t = QuantileTable(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="bins"):
        make_num(4, 8, table=t)


def test_numerical_sample_emits_real_values():
    t = QuantileTable(np.array([0.0, 1.0, 2.0, 3.0]))
    codec, _ = make_num(4, 8, table=t)
    batch, emb = codec.sample(np.zeros((2000, 8)), np.random.default_rng(5))
    assert batch.codes.dtype == np.float64
    assert np.all((batch.codes >= 0.0) & (batch.codes <= 3.0))
    assert emb.data.shape == (2000, 8)


def test_numerical_integer_sampling():
    t = QuantileTable(np.array([1.0, 6.0]), integer=True)
    codec, _ = make_num(2, 4, table=t)
    batch, _ = codec.sample(np.zeros((500, 4)), np.random.default_rng(6))
    assert np.array_equal(batch.codes, np.rint(batch.codes))
