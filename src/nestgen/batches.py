"""Transposed batch layout for nested observations.

A batch of N nested records is stored as one tree whose leaves are arrays with
a leading row axis, not as N python objects. A list node holds the lengths of
its rows and one values subtree with the elements of all its rows end to end:
row b's elements are rows starts[b] .. starts[b] + lengths[b] - 1 of the
values, where starts are the running sums of lengths, so the values have
lengths.sum() rows (Arrow's list layout, Dremel's striped columns). An
ingested batch is exactly ingest's coded columns. No batch stores padding:
only a list codec pads, in the grid it builds for attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class LeafBatch:
    codes: np.ndarray  # int64 category/bin codes, or floats in sampled output


@dataclass
class StructBatch:
    fields: dict[str, Any]


@dataclass
class ListBatch:
    lengths: np.ndarray
    values: Any  # subtree of the elements of all rows end to end, lengths.sum() rows


def n_rows(tree) -> int:
    if isinstance(tree, LeafBatch):
        return tree.codes.shape[0]
    if isinstance(tree, ListBatch):
        return tree.lengths.shape[0]
    return n_rows(next(iter(tree.fields.values())))


def take(tree, idx):
    """Select rows (fancy indexing, so idx may reorder or repeat); a list
    takes the elements of its selected rows, in their order."""
    if isinstance(tree, LeafBatch):
        return LeafBatch(tree.codes[idx])
    if isinstance(tree, ListBatch):
        lengths = tree.lengths[idx]
        starts = np.cumsum(tree.lengths) - tree.lengths
        # element j of output row k is element starts[idx[k]] + j of the input
        shift = np.repeat(starts[idx] - (np.cumsum(lengths) - lengths), lengths)
        return ListBatch(lengths, take(tree.values, shift + np.arange(shift.size)))
    return StructBatch({k: take(v, idx) for k, v in tree.fields.items()})


def concat_trees(trees):
    """Concatenate batches along the row axis; a list concatenates its
    lengths and its elements."""
    first = trees[0]
    if isinstance(first, LeafBatch):
        return LeafBatch(np.concatenate([t.codes for t in trees]))
    if isinstance(first, ListBatch):
        return ListBatch(np.concatenate([t.lengths for t in trees]),
                         concat_trees([t.values for t in trees]))
    return StructBatch({k: concat_trees([t.fields[k] for t in trees]) for k in first.fields})
