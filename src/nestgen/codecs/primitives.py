"""Leaf codecs: categorical fields and quantile-binned numeric fields."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..batches import LeafBatch
from .base import Codec

DEFAULT_BINS = 100


class CategoricalCodec(Codec):
    """One embedding matrix W does double duty: encoding picks row k, and
    the logits cond @ W^T (no separate output head) are what the scorer
    `encode` returns scores, in one `categorical_nll` op that takes cond and
    W, and what `sample` draws from off the tape, inverting the softmax CDF
    with a single uniform draw."""

    def __init__(self, path: str, cardinality: int, width: int, store, rng):
        if cardinality < 1:
            raise ValueError(f"{path}: cardinality must be positive, got {cardinality}")
        self.path = path
        self.cardinality = cardinality
        self.width = width
        self.w = store.allocate(f"{path}/W", (cardinality, width), rng)

    def encode(self, x: LeafBatch, rng=None):
        codes = np.asarray(x.codes)
        if codes.min(initial=0) < 0 or codes.max(initial=0) >= self.cardinality:
            raise ValueError(f"{self.path}: code out of range 0..{self.cardinality - 1}")
        return ad.gather_rows(self.w, codes), lambda cond: ad.categorical_nll(cond, self.w, codes)

    def sample(self, cond, rng):
        z = ad.as_tensor(cond).data @ self.w.data.T
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        cdf = np.cumsum(e / e.sum(axis=-1, keepdims=True), axis=-1)
        u = rng.random(cdf.shape[0])
        codes = np.minimum((u[:, None] > cdf).sum(axis=1), self.cardinality - 1)
        return LeafBatch(codes.astype(np.int64)), ad.gather_rows(self.w, codes)


class QuantileTable:
    """Monotone table q[i] at levels i/(n-1); the model works on bin codes
    and this table maps between codes and real values."""

    def __init__(self, q: np.ndarray, integer: bool = False):
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("quantile table needs a 1-D array of length >= 2")
        if not np.all(np.isfinite(q)):
            raise ValueError("quantile table must be finite")
        if np.any(np.diff(q) < 0):
            raise ValueError("quantile table must be non-decreasing")
        self.q = q
        self.integer = integer

    @classmethod
    def fit(cls, values, n_bins: int, integer: bool = False) -> "QuantileTable":
        """Empirical quantiles at n_bins evenly spaced levels, linearly
        interpolated between order statistics."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot fit quantiles on an empty column")
        if np.any(np.isnan(values)):
            raise ValueError("numeric column contains NaN")
        if n_bins < 2:
            raise ValueError("need at least 2 bins")
        levels = np.linspace(0.0, 1.0, n_bins)
        return cls(np.quantile(values, levels, method="linear"), integer=integer)

    @property
    def n_bins(self) -> int:
        return self.q.size

    def bin_values(self, x) -> np.ndarray:
        """Nearest quantile by absolute distance; ties go to the lower index,
        out-of-range values clamp to the end bins."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(np.isnan(x)):
            raise ValueError("cannot bin NaN values")
        j = np.searchsorted(self.q, x)
        lo = np.clip(j - 1, 0, self.q.size - 1)
        hi = np.clip(j, 0, self.q.size - 1)
        pick = np.where(np.abs(x - self.q[lo]) <= np.abs(self.q[hi] - x), lo, hi)
        # duplicate quantile values share a bin: snap to the first index
        return np.searchsorted(self.q, self.q[pick], side="left").astype(np.int64)

    def sample_values(self, bins, rng) -> np.ndarray:
        """Uniform over the set of values that bin_values maps back to the
        chosen code: the bracket between the midpoints around q_i, clamped to
        the table range at both ends. Integer tables round. This keeps
        code -> value -> code a fixed point, so synthesized numeric columns
        reproduce the bin frequencies the model was trained on."""
        bins = np.asarray(bins)
        mids = (self.q[:-1] + self.q[1:]) / 2.0
        lo = np.where(bins <= 0, self.q[0], mids[np.clip(bins - 1, 0, mids.size - 1)])
        hi = np.where(bins >= self.q.size - 1, self.q[-1],
                      mids[np.clip(bins, 0, mids.size - 1)])
        vals = lo + rng.random(bins.shape) * (hi - lo)
        return np.rint(vals) if self.integer else vals

    def representative(self, bins) -> np.ndarray:
        vals = self.q[np.asarray(bins)]
        return np.rint(vals) if self.integer else vals


class NumericalCodec(CategoricalCodec):
    """A categorical codec over quantile bins. Ingestion bins raw values, so
    encode and scoring see bin codes; only sampling touches real numbers,
    drawing a value uniformly from the chosen bin's bracket. The table may
    be attached after construction (it is fitted from data), but sampling
    needs it."""

    def __init__(self, path: str, n_bins: int, width: int, store, rng,
                 table: QuantileTable | None = None):
        if table is not None and table.n_bins != n_bins:
            raise ValueError(f"{path}: table has {table.n_bins} bins, expected {n_bins}")
        super().__init__(path, n_bins, width, store, rng)
        self.table = table

    def sample(self, cond, rng):
        if self.table is None:
            raise RuntimeError(f"{self.path}: no quantile table fitted; "
                               "ingest data before sampling numeric fields")
        bins, emb = super().sample(cond, rng)
        return LeafBatch(self.table.sample_values(bins.codes, rng)), emb
