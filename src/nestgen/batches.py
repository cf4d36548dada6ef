"""Transposed batch layout for nested observations.

A batch of N nested records is stored as one tree whose leaves are arrays with
a leading batch axis, not as N python objects. List nodes carry a lengths
array plus a values subtree padded to the list's capacity; every array under
the values subtree gains one extra leading capacity axis. Cutting some rows to
their first p positions and merging the first two axes turns a (B, P, ...)
subtree into a (rows*p, ...) batch for the element codec, and a validity mask
marks which of those rows are real.
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


def _map(fn, *trees):
    """Rebuild the first tree with fn applied to each of its arrays (leaf
    codes and list lengths) and the matching arrays of the other trees,
    which must have the same shape of nodes."""
    first = trees[0]
    if isinstance(first, LeafBatch):
        return LeafBatch(fn(*(t.codes for t in trees)))
    if isinstance(first, ListBatch):
        return ListBatch(fn(*(t.lengths for t in trees)),
                         _map(fn, *(t.values for t in trees)))
    return StructBatch({k: _map(fn, *(t.fields[k] for t in trees)) for k in first.fields})


def arrays(tree):
    """Every array of the tree (leaf codes and list lengths), depth first."""
    if isinstance(tree, LeafBatch):
        yield tree.codes
    elif isinstance(tree, ListBatch):
        yield tree.lengths
        yield from arrays(tree.values)
    else:
        for sub in tree.fields.values():
            yield from arrays(sub)


def take_prefix(tree, rows, p: int):
    """Rows `rows` of a list's values subtree, each cut to its first p
    positions and merged: (B, P, ...) -> (len(rows)*p, ...)."""
    return _map(lambda a: a[rows, :p].reshape((-1,) + a.shape[2:]), tree)


def take_positions(tree, idx):
    """Position idx[b, i] of row b at (b, i) on every array of a list's
    values subtree: (B, P, ...) -> (B, P, ...)."""
    return _map(lambda a: a[np.arange(a.shape[0])[:, None], idx], tree)


def take(tree, idx):
    """Select rows along the batch axis (fancy indexing, so idx may reorder
    or repeat)."""
    return _map(lambda a: a[idx], tree)


def merge_leading(tree):
    """Merge the first two axes of every array: (B, P, ...) -> (B*P, ...)."""
    return _map(lambda a: a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:]), tree)


def split_leading(tree, b: int, p: int):
    """Inverse of merge_leading: (b*p, ...) -> (b, p, ...) on every array."""
    return _map(lambda a: a.reshape((b, p) + a.shape[1:]), tree)


def concat_trees(trees):
    """Concatenate batches along the batch axis. Shapes past the batch axis
    must agree (lists padded to the same capacity)."""
    return _map(lambda *arrays: np.concatenate(arrays, axis=0), *trees)


def put_rows(tree, idx, part):
    """Write the rows of `part` into `tree` at batch rows idx. Arrays are
    written in place unless part's values need a wider dtype (sampled
    numeric values into integer zeros), in which case they are copied."""
    def put(a, rows):
        if not np.can_cast(rows.dtype, a.dtype):
            a = a.astype(np.result_type(a, rows))
        a[idx] = rows
        return a

    return _map(put, tree, part)
