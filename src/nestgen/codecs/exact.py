"""Exact joint enumeration for small discrete codec trees.

Chaining the decoder softmaxes over every possible observation gives the
model's joint distribution in closed form. Feasible only when the outcome
space is tiny, which is exactly when it is useful: as an oracle for
normalization (the joint must sum to 1) and as the reference law for
sampling-frequency tests.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..batches import LeafBatch, ListBatch, StructBatch
from .base import Codec, pass_losses
from .composites import ListCodec, StructCodec
from .primitives import CategoricalCodec


def enumerate_outcomes(codec: Codec, limit: int = 100000) -> list:
    """All observations of a discrete codec as python value trees
    (category/bin codes at leaves, dicts at structs, lists at list nodes).
    Raises ValueError when a node has more than `limit` outcomes; a list
    stops extending its outcomes at the first length that passes it."""
    if isinstance(codec, CategoricalCodec):
        out = list(range(codec.cardinality))
    elif isinstance(codec, StructCodec):
        parts = [enumerate_outcomes(c, limit) for c in codec._children]
        out = [dict(zip(codec.names, combo)) for combo in product(*parts)]
    elif isinstance(codec, ListCodec):
        elems = enumerate_outcomes(codec.value_codec, limit)
        out = []
        for m in range(codec.max_len + 1):
            out.extend(list(combo) for combo in product(elems, repeat=m))
            if len(out) > limit:
                break
    else:
        raise TypeError(f"unsupported codec: {type(codec).__name__}")
    if len(out) > limit:
        raise ValueError(f"{codec.path}: more than {limit} outcomes to enumerate")
    return out


def batch_from_values(codec: Codec, values: list):
    """Pack python value trees into one BatchTree. A list is its lengths
    plus its elements end to end."""
    if isinstance(codec, CategoricalCodec):
        return LeafBatch(np.asarray(values, dtype=np.int64))
    if isinstance(codec, StructCodec):
        return StructBatch({
            name: batch_from_values(child, [v[name] for v in values])
            for name, child in zip(codec.names, codec._children)})
    if isinstance(codec, ListCodec):
        return ListBatch(np.asarray([len(v) for v in values], dtype=np.int64),
                         batch_from_values(codec.value_codec, [e for v in values for e in v]))
    raise TypeError(f"unsupported codec: {type(codec).__name__}")


def joint_log_probs(codec: Codec, store, outcomes: list) -> np.ndarray:
    """log P(x) for each outcome under the current parameters, computed with
    identity shuffle order (rng=None)."""
    batch = batch_from_values(codec, outcomes)
    losses = pass_losses(codec, store, batch, rng=None, passes=1)[0]
    return -losses.data


def joint_table(codec: Codec, store, limit: int = 100000):
    """(outcomes, probabilities) for the whole outcome space."""
    outcomes = enumerate_outcomes(codec, limit)
    return outcomes, np.exp(joint_log_probs(codec, store, outcomes))
