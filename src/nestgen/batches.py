"""Transposed batch layout for nested observations.

A batch of N nested records is stored as one tree whose leaves are arrays with
a leading batch axis, not as N python objects. List nodes carry a lengths
array plus a values subtree padded to the list's capacity; every array under
the values subtree gains one extra leading capacity axis. Flattening the first
two axes turns a (B, P, ...) subtree into a (B*P, ...) batch for the element
codec, and a validity mask marks which of those rows are real.
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
    values: Any  # subtree; arrays carry an extra capacity axis after the batch axis


def n_rows(tree) -> int:
    if isinstance(tree, LeafBatch):
        return tree.codes.shape[0]
    if isinstance(tree, ListBatch):
        return tree.lengths.shape[0]
    return n_rows(next(iter(tree.fields.values())))


def take(tree, idx):
    """Select rows along the batch axis (fancy indexing, so idx may reorder
    or repeat)."""
    if isinstance(tree, LeafBatch):
        return LeafBatch(tree.codes[idx])
    if isinstance(tree, ListBatch):
        return ListBatch(tree.lengths[idx], take(tree.values, idx))
    return StructBatch({k: take(v, idx) for k, v in tree.fields.items()})


def merge_leading(tree):
    """Merge the first two axes of every array: (B, P, ...) -> (B*P, ...)."""
    if isinstance(tree, LeafBatch):
        c = tree.codes
        return LeafBatch(c.reshape((c.shape[0] * c.shape[1],) + c.shape[2:]))
    if isinstance(tree, ListBatch):
        ln = tree.lengths
        return ListBatch(ln.reshape(ln.shape[0] * ln.shape[1]), merge_leading(tree.values))
    return StructBatch({k: merge_leading(v) for k, v in tree.fields.items()})


def concat_trees(trees):
    """Concatenate batches along the batch axis. Shapes past the batch axis
    must agree (lists padded to the same capacity)."""
    first = trees[0]
    if isinstance(first, LeafBatch):
        return LeafBatch(np.concatenate([t.codes for t in trees], axis=0))
    if isinstance(first, ListBatch):
        return ListBatch(np.concatenate([t.lengths for t in trees], axis=0),
                         concat_trees([t.values for t in trees]))
    return StructBatch({k: concat_trees([t.fields[k] for t in trees]) for k in first.fields})


def put_rows(tree, idx, part):
    """Write the rows of `part` into `tree` at batch rows idx. Arrays are
    written in place unless part's values need a wider dtype (sampled
    numeric values into integer zeros), in which case they are copied."""
    if isinstance(tree, LeafBatch):
        codes = tree.codes
        if not np.can_cast(part.codes.dtype, codes.dtype):
            codes = codes.astype(np.result_type(codes, part.codes))
        codes[idx] = part.codes
        return LeafBatch(codes)
    if isinstance(tree, ListBatch):
        tree.lengths[idx] = part.lengths
        return ListBatch(tree.lengths, put_rows(tree.values, idx, part.values))
    return StructBatch({k: put_rows(v, idx, part.fields[k]) for k, v in tree.fields.items()})


def split_leading(tree, b: int, p: int):
    """Inverse of merge_leading: (b*p, ...) -> (b, p, ...) on every array."""
    if isinstance(tree, LeafBatch):
        c = tree.codes
        return LeafBatch(c.reshape((b, p) + c.shape[1:]))
    if isinstance(tree, ListBatch):
        return ListBatch(tree.lengths.reshape(b, p), split_leading(tree.values, b, p))
    return StructBatch({k: split_leading(v, b, p) for k, v in tree.fields.items()})
