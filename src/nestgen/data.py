"""Dataset ingestion and emission.

Ingestion turns CSV (flat schemas) or JSON-lines (any schema) files into the
batch-major tensors the codecs train on: every leaf becomes one integer code
array whose leading axis is the row axis, with one extra position axis per
enclosing list. Along the way it fits quantile tables for numeric leaves and
infers vocabularies for enums that declared neither symbols nor cardinality.
Emission is the inverse: code trees back to records, records back to files.

Row handling: a row containing a null, or a list longer than its declared
capacity, is dropped and counted in the ingestion report. A row that does not
match the schema shape at all (missing field, non-numeric text in a numeric
column, a scalar where a list should be) aborts with an error naming the row.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .batches import (LeafBatch, ListBatch, StructBatch, merge_leading, split_leading,
                      take)
from .codecs.primitives import DEFAULT_BINS, QuantileTable
from .schema import Array, Enum, Number, Record, SchemaError, resolve, walk_paths

log = logging.getLogger("nestgen.data")


class DataError(ValueError):
    pass


class _Reject(Exception):
    """Internal: row dropped for a tolerated reason (null / overlong list)."""

    def __init__(self, kind):
        self.kind = kind


@dataclass
class Transform:
    """Everything needed to map raw values to codes and back: the schema with
    all cardinalities resolved, enum vocabularies, and quantile tables, both
    keyed by schema node path."""

    schema: object
    vocabs: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {p: {_sym_key(s): i for i, s in enumerate(v)}
                       for p, v in self.vocabs.items()}

    def code_for(self, path, value, node, where):
        if path in self._index:
            idx = self._index[path]
            k = _sym_key(value)
            if k not in idx:
                raise DataError(f"{where}: unknown category {value!r} in "
                                f"column {path}")
            return idx[k]
        # enum with declared cardinality but no symbols: data carries codes
        try:
            code = int(value)
        except (TypeError, ValueError):
            raise DataError(f"{where}: column {path} expects integer codes, "
                            f"got {value!r}") from None
        if not 0 <= code < node.cardinality:
            raise DataError(f"{where}: code {code} out of range for column "
                            f"{path} (cardinality {node.cardinality})")
        return code

    def value_for(self, path, code, node):
        if path in self.vocabs:
            return self.vocabs[path][code]
        return int(code)


def _sym_key(value):
    return value if isinstance(value, str) else str(value)


def detect_format(path) -> str:
    p = str(path).lower()
    if p.endswith(".csv"):
        return "csv"
    if p.endswith(".jsonl") or p.endswith(".ndjson") or p.endswith(".json"):
        return "jsonl"
    raise DataError(f"cannot infer data format from {path!r}; expected a "
                    ".csv or .jsonl file")


def is_flat(schema) -> bool:
    return (isinstance(schema, Record)
            and all(isinstance(f, (Enum, Number)) for f in schema.fields))


def read_records(path, fmt=None) -> list:
    """Load raw records. CSV yields dicts of strings keyed by header name;
    JSONL yields the parsed objects, one per line."""
    fmt = fmt or detect_format(path)
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restkey="__extra__")
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty CSV (missing header row)")
            rows = []
            for i, row in enumerate(reader):
                if "__extra__" in row:
                    raise DataError(f"{path}: row {i + 1} has more values "
                                    "than the header")
                if any(v is None for v in row.values()):
                    raise DataError(f"{path}: row {i + 1} has fewer values "
                                    "than the header")
                rows.append(row)
            return rows
    if fmt == "jsonl":
        records = []
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise DataError(f"{path}: line {i + 1}: invalid JSON "
                                    f"({e.msg})") from None
        return records
    raise DataError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _is_null(v):
    return v is None or (isinstance(v, str) and v == "")


def _check_shape(value, node, where):
    """Validate one record against the schema, normalising CSV strings.
    Returns a tree of the same shape with numerics as floats. Raises _Reject
    for tolerated problems and DataError for malformed rows."""
    if _is_null(value):
        raise _Reject("null")
    if isinstance(node, Enum):
        if isinstance(value, (dict, list)):
            raise DataError(f"{where}: field {node.name}: expected a "
                            f"category, got {type(value).__name__}")
        return value
    if isinstance(node, Number):
        if isinstance(value, bool) or isinstance(value, (dict, list)):
            raise DataError(f"{where}: field {node.name}: expected a number")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise DataError(f"{where}: field {node.name}: not a number: "
                            f"{value!r}") from None
    if isinstance(node, Record):
        if not isinstance(value, dict):
            raise DataError(f"{where}: expected an object for {node.name}, "
                            f"got {type(value).__name__}")
        out = {}
        for f in node.fields:
            if f.name not in value:
                raise DataError(f"{where}: missing field {f.name!r}")
            out[f.name] = _check_shape(value[f.name], f, where)
        return out
    if isinstance(node, Array):
        if not isinstance(value, list):
            raise DataError(f"{where}: expected a list for {node.name}, got "
                            f"{type(value).__name__}")
        if len(value) > node.max_len:
            raise _Reject("overlong")
        return [_check_shape(v, node.items, where) for v in value]
    raise TypeError(f"not a schema node: {type(node).__name__}")


def _collect_leaves(tree, node, path, sink):
    if isinstance(node, (Enum, Number)):
        sink[path].append(tree)
    elif isinstance(node, Record):
        for f in node.fields:
            _collect_leaves(tree[f.name], f, f"{path}/{f.name}", sink)
    elif isinstance(node, Array):
        for item in tree:
            _collect_leaves(item, node.items, f"{path}/{node.items.name}", sink)


def fit_transform(records_checked, schema) -> Transform:
    """Build vocabularies and quantile tables from validated raw records."""
    sink = {p: [] for p, n in walk_paths(schema) if isinstance(n, (Enum, Number))}
    for tree in records_checked:
        _collect_leaves(tree, schema, schema.name, sink)
    vocabs, tables, cards = {}, {}, {}
    for path, node in walk_paths(schema):
        if isinstance(node, Enum):
            if node.symbols is not None:
                vocabs[path] = list(node.symbols)
            elif node.cardinality is None:
                seen = {}
                for v in sink[path]:
                    seen.setdefault(_sym_key(v), v)
                if not seen:
                    raise DataError(f"enum {path}: no values observed; "
                                    "declare symbols or cardinality")
                vocabs[path] = [seen[k] for k in sorted(seen)]
                cards[path] = len(vocabs[path])
        elif isinstance(node, Number):
            vals = np.asarray(sink[path], dtype=np.float64)
            if vals.size == 0:
                raise DataError(f"numeric column {path}: no values observed")
            tables[path] = QuantileTable.fit(vals, node.bins or DEFAULT_BINS,
                                             integer=node.integer)
    return Transform(resolve(schema, cards), vocabs, tables)


def _encode_tree(tree, node, path, tf, where):
    if isinstance(node, Enum):
        return tf.code_for(path, tree, node, where)
    if isinstance(node, Number):
        return None  # numerics are binned vectorised in _assemble
    if isinstance(node, Record):
        return {f.name: _encode_tree(tree[f.name], f, f"{path}/{f.name}", tf, where)
                for f in node.fields}
    if isinstance(node, Array):
        return [_encode_tree(v, node.items, f"{path}/{node.items.name}", tf, where)
                for v in tree]
    raise TypeError(type(node).__name__)


def _assemble(raw, codes, node, path, tf):
    """raw/codes: parallel per-row lists shaped like the node. Returns the
    batch tree; numeric leaves are binned here so the whole column goes
    through one vectorised quantile lookup."""
    if isinstance(node, Enum):
        arr = np.array([0 if c is None else c for c in codes], dtype=np.int64)
        return LeafBatch(arr)
    if isinstance(node, Number):
        vals = np.array([0.0 if v is None else v for v in raw], dtype=np.float64)
        table = tf.tables.get(path)
        if table is None:
            raise DataError(f"numeric column {path}: no quantile table")
        return LeafBatch(table.bin_values(vals).astype(np.int64))
    if isinstance(node, Record):
        return StructBatch({
            f.name: _assemble([None if r is None else r[f.name] for r in raw],
                              [None if c is None else c[f.name] for c in codes],
                              f, f"{path}/{f.name}", tf)
            for f in node.fields})
    if isinstance(node, Array):
        b, p = len(raw), node.max_len
        lengths = np.array([len(r) if r is not None else 0 for r in raw],
                           dtype=np.int64)
        flat_raw, flat_codes = [], []
        for row_raw, row_codes in zip(raw, codes):
            items_r = row_raw or []
            items_c = row_codes or []
            flat_raw.extend(items_r)
            flat_codes.extend(items_c)
            pad = p - len(items_r)
            flat_raw.extend([None] * pad)
            flat_codes.extend([None] * pad)
        child = _assemble(flat_raw, flat_codes, node.items,
                          f"{path}/{node.items.name}", tf)
        return ListBatch(lengths, split_leading(child, b, p))
    raise TypeError(type(node).__name__)


def build_batch(records_checked, transform) -> object:
    """Validated raw records -> BatchTree of integer codes."""
    schema = transform.schema
    codes = [_encode_tree(r, schema, schema.name, transform, f"record {i}")
             for i, r in enumerate(records_checked)]
    return _assemble(records_checked, codes, schema, schema.name, transform)


@dataclass
class IngestReport:
    kept: int = 0
    rejected_null: int = 0
    rejected_overlong: int = 0

    @property
    def rejected(self):
        return self.rejected_null + self.rejected_overlong


def check_records(records, schema):
    """Shape-check raw records. Returns (validated records, report)."""
    if not records:
        raise DataError("no records in input")
    checked, report = [], IngestReport()
    for i, rec in enumerate(records):
        try:
            checked.append(_check_shape(rec, schema, f"record {i}"))
            report.kept += 1
        except _Reject as r:
            if r.kind == "null":
                report.rejected_null += 1
            else:
                report.rejected_overlong += 1
    if report.rejected:
        log.warning("rejected %d of %d records (%d with nulls, %d with "
                    "overlong lists)", report.rejected, len(records),
                    report.rejected_null, report.rejected_overlong)
    if not checked:
        raise DataError(
            f"all {len(records)} records rejected "
            f"({report.rejected_null} with nulls, "
            f"{report.rejected_overlong} with overlong lists)")
    return checked, report


def ingest_records(records, schema, transform=None):
    """Records -> (BatchTree, Transform, IngestReport). Pass an existing
    transform to encode new data with previously fitted vocabularies and
    quantile tables instead of refitting."""
    checked, report = check_records(records, schema)
    if transform is None:
        transform = fit_transform(checked, schema)
    tree = build_batch(checked, transform)
    return tree, transform, report


def ingest(path, schema, fmt=None, transform=None):
    """File -> (BatchTree, Transform, IngestReport)."""
    fmt = fmt or detect_format(path)
    if fmt == "csv" and not is_flat(schema):
        raise DataError("CSV input requires a flat record schema; use jsonl "
                        "for nested data")
    records = read_records(path, fmt)
    try:
        return ingest_records(records, schema, transform)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def records_from_batch(tree, transform, rng=None) -> list:
    """BatchTree of codes -> list of raw records. Numeric codes become the
    bin's quantile value, or a uniform draw inside the bin's bracket when an
    rng is given (matching how sampled numbers should be spread)."""
    return _decode(tree, transform.schema, transform.schema.name, transform, rng)


def _decode(tree, node, path, tf, rng):
    if isinstance(node, Enum):
        return [tf.value_for(path, int(c), node) for c in tree.codes]
    if isinstance(node, Number):
        arr = np.asarray(tree.codes)
        if np.issubdtype(arr.dtype, np.floating):
            # sampled trees already carry real values
            vals = arr
        else:
            # ingested trees carry bin codes
            table = tf.tables.get(path)
            if table is None:
                raise DataError(f"numeric column {path}: no quantile table")
            vals = (table.sample_values(arr, rng) if rng is not None
                    else table.representative(arr))
        return [int(v) if node.integer else float(v) for v in vals]
    if isinstance(node, Record):
        cols = {f.name: _decode(tree.fields[f.name], f, f"{path}/{f.name}",
                                tf, rng)
                for f in node.fields}
        n = len(next(iter(cols.values())))
        return [{k: v[i] for k, v in cols.items()} for i in range(n)]
    if isinstance(node, Array):
        # only the valid slots b*max_len + j, j < lengths[b], are decoded:
        # padding never reaches a leaf (nor draws from rng there)
        lengths = np.asarray(tree.lengths, dtype=np.int64)
        valid = np.arange(node.max_len)[None, :] < lengths[:, None]
        flat = _decode(take(merge_leading(tree.values), np.flatnonzero(valid)),
                       node.items, f"{path}/{node.items.name}", tf, rng)
        ends = np.cumsum(lengths).tolist()
        return [flat[e - m:e] for e, m in zip(ends, lengths.tolist())]
    raise TypeError(type(node).__name__)


def write_records(records, schema, path, fmt) -> None:
    """Records -> file. CSV only for flat schemas; an empty CSV still gets
    its header row."""
    if fmt == "csv":
        if not is_flat(schema):
            raise DataError("CSV output requires a flat record schema; "
                            "choose jsonl")
        names = [f.name for f in schema.fields]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for rec in records:
                w.writerow([_csv_cell(rec[n]) for n in names])
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v if isinstance(v, str) else str(v)


def join_tables(parent_records, child_records, key, list_field,
                drop_key=True) -> list:
    """One-to-many relational join: group child rows under their foreign key
    and attach them to the matching parent as a list field. Children keep
    their file order; orphan children (no matching parent) raise."""
    groups = {}
    for i, child in enumerate(child_records):
        if key not in child:
            raise DataError(f"child row {i}: missing join key {key!r}")
        child = dict(child)
        k = _sym_key(child.pop(key) if drop_key else child[key])
        groups.setdefault(k, []).append(child)
    out, seen = [], set()
    for i, parent in enumerate(parent_records):
        if key not in parent:
            raise DataError(f"parent row {i}: missing join key {key!r}")
        rec = dict(parent)
        k = _sym_key(rec.pop(key) if drop_key else rec[key])
        if k in seen:
            raise DataError(f"parent row {i}: duplicate key {k!r}")
        seen.add(k)
        rec[list_field] = groups.pop(k, [])
        out.append(rec)
    if groups:
        k = next(iter(groups))
        raise DataError(f"child rows reference missing parent key {k!r}")
    return out


def flatten_records(records, schema) -> dict:
    """Records -> column table for the metrics. Scalar fields become columns
    named by their slash path under the root. When the schema contains list
    fields, each list item contributes one row that repeats its parent's
    scalar values, so cross-level associations stay visible; records whose
    lists are all empty do not contribute item rows.

    Returns {"record": record-level columns, "item": item-level columns or
    None for flat schemas, "item_count": rows in the item table}.
    """
    rec_cols = {}
    item_cols = {}
    has_lists = any(isinstance(n, Array) for _, n in walk_paths(schema))

    def scalars(tree, node, prefix, out):
        for f in node.fields:
            name = f"{prefix}{f.name}"
            if isinstance(f, (Enum, Number)):
                out[name] = tree[f.name]
            elif isinstance(f, Record):
                scalars(tree[f.name], f, name + "/", out)

    def explode(tree, node, prefix, parent_vals):
        vals = dict(parent_vals)
        row_scalars = {}
        scalars(tree, node, prefix, row_scalars)
        vals.update(row_scalars)
        lists = [f for f in node.fields if isinstance(f, Array)]
        if not lists:
            yield vals
            return
        if len(lists) > 1:
            raise DataError("item-level metrics support one list field per "
                            "record; found " +
                            ", ".join(f.name for f in lists))
        f = lists[0]
        for item in tree[f.name]:
            ip = f"{prefix}{f.name}/"
            if isinstance(f.items, Record):
                yield from explode(item, f.items, ip, vals)
            else:
                row = dict(vals)
                row[ip + f.items.name] = item
                yield row

    for i, rec in enumerate(records):
        try:
            checked = _check_shape(rec, schema, f"record {i}")
        except _Reject as r:
            raise DataError(f"record {i} does not conform to the schema "
                            f"({'null value' if r.kind == 'null' else 'overlong list'})") from None
        row = {}
        scalars(checked, schema, "", row)
        for k, v in row.items():
            rec_cols.setdefault(k, []).append(v)
        if has_lists:
            for item_row in explode(checked, schema, "", {}):
                for k, v in item_row.items():
                    item_cols.setdefault(k, []).append(v)

    n_items = len(next(iter(item_cols.values()))) if item_cols else 0
    return {"record": rec_cols,
            "item": item_cols if has_lists else None,
            "item_count": n_items}
