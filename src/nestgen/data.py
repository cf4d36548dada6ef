"""Dataset ingestion and emission.

Ingestion turns CSV (flat schemas) or JSON-lines (any schema) files into the
batch-major tensors the codecs train on: every leaf becomes one integer code
array whose leading axis is the row axis, with one extra position axis per
enclosing list. Emission is the inverse: code trees back to records, records
back to files.

Raw records are read once, by a record plan compiled from the schema (one
closure per node, `_plan`) that validates each record, normalises CSV strings
and appends every leaf value and list length to a flat buffer per schema path
(`Columns`; a list's lengths are its offsets, as in Arrow's list layout).
Quantile tables, enum vocabularies, padded batches and the metric tables are
all built from those buffers, each column coded in bulk.

Row handling: a row containing a null, or a list longer than its declared
capacity, is dropped and counted in the ingestion report. A row that does not
match the schema shape at all (missing field, non-numeric text or a
non-finite number in a numeric column, a scalar where a list should be)
aborts with an error naming the row by its index in the input.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .batches import LeafBatch, ListBatch, StructBatch, merge_leading, take
from .codecs.primitives import DEFAULT_BINS, QuantileTable
from .schema import Array, Enum, Number, Record, leaf_columns, resolve, walk_paths

log = logging.getLogger("nestgen.data")


class DataError(ValueError):
    pass


class _Reject(Exception):
    """Internal: row dropped for a tolerated reason (null / overlong list)."""

    def __init__(self, kind):
        self.kind = kind


class _BadValue(Exception):
    """Internal: args (index, message) of a column value without a code."""


@dataclass
class Transform:
    """Everything needed to map raw values to codes and back: the schema with
    all cardinalities resolved, enum vocabularies, and quantile tables, both
    keyed by schema node path."""

    schema: object
    vocabs: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {p: {str(s): i for i, s in enumerate(v)}
                       for p, v in self.vocabs.items()}

    def code_column(self, path, node, values):
        """Enum column values -> int64 codes. Raises _BadValue at the first
        value that has no code."""
        idx = self._index.get(path)
        if idx is not None:
            try:
                return np.fromiter(map(idx.__getitem__, map(str, values)),
                                   np.int64, len(values))
            except KeyError:
                pass  # the loop below names the first unknown value
        codes = np.empty(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            if idx is not None:
                code = idx.get(str(value))
                if code is None:
                    raise _BadValue(i, f"unknown category {value!r} in column "
                                       f"{path}")
            else:  # declared cardinality but no symbols: data carries codes
                try:
                    if isinstance(value, bool) or (isinstance(value, float)
                                                   and not value.is_integer()):
                        raise ValueError  # booleans and fractions are no codes
                    code = int(value)
                except (TypeError, ValueError):
                    raise _BadValue(i, f"column {path} expects integer codes, "
                                       f"got {value!r}") from None
                if not 0 <= code < node.cardinality:
                    raise _BadValue(i, f"code {code} out of range for column "
                                       f"{path} (cardinality {node.cardinality})")
            codes[i] = code
        return codes

    def value_for(self, path, code):
        if path in self.vocabs:
            return self.vocabs[path][code]
        return int(code)


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
    JSONL yields the parsed objects, one per line. Both are read as UTF-8,
    with or without a leading byte order mark."""
    fmt = fmt or detect_format(path)
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh, restkey="__extra__")
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty CSV (missing header row)")
            repeated = [n for n in reader.fieldnames if reader.fieldnames.count(n) > 1]
            if repeated:
                raise DataError(f"{path}: column {repeated[0]!r} appears more "
                                "than once in the header")
            rows = []
            for i, row in enumerate(reader):
                if "__extra__" in row:
                    raise DataError(f"{path}: row {i + 1} has more values "
                                    "than the header")
                if None in row.values():
                    raise DataError(f"{path}: row {i + 1} has fewer values "
                                    "than the header")
                rows.append(row)
            return rows
    if fmt == "jsonl":
        records = []
        with open(path, encoding="utf-8-sig") as fh:
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


class Columns:
    """A schema's column plan: a flat buffer per leaf (its values) and per
    list (its lengths), keyed by walk_paths path, filled by the schema's
    record plan. `rows` holds the input index of each record `add` accepted."""

    def __init__(self, schema):
        self.schema, self.rows = schema, []
        self.bufs = {p: [] for p, n in walk_paths(schema) if not isinstance(n, Record)}
        self._fill = _plan(schema, schema.name, self.bufs)

    def add(self, record, i):
        """Validate input record i and append it, or leave nothing behind."""
        bufs = self.bufs.values()
        marks = list(map(len, bufs))
        try:
            self._fill(record)
        except (_Reject, DataError) as e:
            for b, m in zip(bufs, marks):
                del b[m:]
            raise e if isinstance(e, _Reject) else DataError(f"record {i}: {e}") from None
        self.rows.append(i)

    def lists_over(self, path):
        """Paths of the lists that enclose `path`, outermost first."""
        return [p for p in self.bufs if path.startswith(p + "/")]

    def __len__(self):
        return len(self.rows)


def _plan(node, path, bufs):
    """fill(value) for one schema node: validates the value (a value of the
    node's usual exact type skips the checks it cannot fail), normalises CSV
    strings and appends its leaves (numerics as floats) and list lengths to
    the buffers. Raises _Reject for tolerated problems and, for malformed
    rows, a DataError that Columns.add prefixes with the record."""
    name = node.name
    if isinstance(node, Record):
        fields = [(f.name, _plan(f, f"{path}/{f.name}", bufs)) for f in node.fields]

        def fill(value):
            if value.__class__ is not dict:
                if value is None or value == "":
                    raise _Reject("null")
                if not isinstance(value, dict):
                    raise DataError(f"expected an object for {name}, got "
                                    f"{type(value).__name__}")
            for key, fill_field in fields:
                if key not in value:
                    raise DataError(f"missing field {key!r}")
                fill_field(value[key])
        return fill

    append = bufs[path].append
    if isinstance(node, Array):
        fill_item, max_len = _plan(node.items, f"{path}/{node.items.name}", bufs), node.max_len

        def fill(value):
            if value.__class__ is not list:
                if value is None or value == "":
                    raise _Reject("null")
                if not isinstance(value, list):
                    raise DataError(f"expected a list for {name}, got "
                                    f"{type(value).__name__}")
            if len(value) > max_len:
                raise _Reject("overlong")
            append(len(value))
            for item in value:
                fill_item(item)
    elif isinstance(node, Number):
        def fill(value):
            x = value
            if value.__class__ is not float:
                if value is None or value == "":
                    raise _Reject("null")
                if isinstance(value, (bool, dict, list)):
                    raise DataError(f"field {name}: expected a number")
                try:
                    x = float(value)
                except (TypeError, ValueError):
                    raise DataError(f"field {name}: not a number: {value!r}") from None
                except OverflowError:
                    raise DataError(f"field {name}: not a finite number: too "
                                    "large for a float") from None
            if not math.isfinite(x):
                raise DataError(f"field {name}: not a finite number: {value!r}")
            append(x)
    else:
        def fill(value):
            if value.__class__ is not str or not value:
                if value is None or value == "":
                    raise _Reject("null")
                if isinstance(value, (dict, list)):
                    raise DataError(f"field {name}: expected a category, got "
                                    f"{type(value).__name__}")
            append(value)
    return fill


def fit_transform(columns, schema) -> Transform:
    """Build vocabularies and quantile tables from checked columns."""
    vocabs, tables, cards = {}, {}, {}
    for path, node in walk_paths(schema):
        if isinstance(node, Enum):
            if node.symbols is not None:
                vocabs[path] = list(node.symbols)
            elif node.cardinality is None:
                # keyed by string; reversed, so the first value seen wins
                values = columns.bufs[path][::-1]
                seen = dict(zip(map(str, values), values))
                if not seen:
                    raise DataError(f"enum {path}: no values observed; "
                                    "declare symbols or cardinality")
                vocabs[path] = [seen[k] for k in sorted(seen)]
                cards[path] = len(vocabs[path])
        elif isinstance(node, Number):
            if not columns.bufs[path]:
                raise DataError(f"numeric column {path}: no values observed")
            tables[path] = QuantileTable.fit(columns.bufs[path],
                                             node.bins or DEFAULT_BINS,
                                             integer=node.integer)
    return Transform(resolve(schema, cards), vocabs, tables)


def _batch_tree(node, path, codes, slots, shape):
    """Batch tree of one schema node. codes[path]: the (values, padding) of a
    leaf or list; slots: the flat index of each value in the padded `shape`.
    Item j of the list value at slot s goes to slot s * max_len + j."""
    if isinstance(node, Record):
        return StructBatch({f.name: _batch_tree(f, f"{path}/{f.name}", codes,
                                                slots, shape)
                            for f in node.fields})
    values, pad = codes[path]
    padded = np.full(math.prod(shape), pad, dtype=np.int64)
    padded[slots] = values
    padded = padded.reshape(shape)
    if not isinstance(node, Array):
        return LeafBatch(padded)
    starts = np.cumsum(values) - values
    items = np.repeat(slots * node.max_len - starts, values) + np.arange(values.sum())
    return ListBatch(padded, _batch_tree(node.items, f"{path}/{node.items.name}",
                                         codes, items, shape + (node.max_len,)))


def build_batch(columns, transform) -> object:
    """Checked columns -> BatchTree of integer codes: each column coded once,
    padded slots hold code 0 (enums) or the bin of 0.0 (numerics). A value
    without a code raises for the first record that holds one."""
    codes, bad = {}, []
    for k, (path, node) in enumerate(walk_paths(transform.schema)):
        values = columns.bufs.get(path)
        if isinstance(node, Array):
            codes[path] = np.asarray(values, dtype=np.int64), 0
        elif isinstance(node, Number):
            table = transform.tables.get(path)
            if table is None:
                raise DataError(f"numeric column {path}: no quantile table")
            codes[path] = table.bin_values(values), table.bin_values(0.0)
        elif isinstance(node, Enum):
            try:
                codes[path] = transform.code_column(path, node, values), 0
            except _BadValue as e:
                i, message = e.args
                for p in reversed(columns.lists_over(path)):
                    i = int(np.searchsorted(np.cumsum(columns.bufs[p]), i,
                                            side="right"))
                bad.append((i, k, message))
    if bad:
        row, _, message = min(bad)
        raise DataError(f"record {columns.rows[row]}: {message}")
    b = len(columns)
    schema = transform.schema
    return _batch_tree(schema, schema.name, codes, np.arange(b), (b,))


@dataclass
class IngestReport:
    kept: int = 0
    rejected_null: int = 0
    rejected_overlong: int = 0

    @property
    def rejected(self):
        return self.rejected_null + self.rejected_overlong


def check_records(records, schema):
    """Shape-check raw records. Returns (Columns of the kept records, report)."""
    if not records:
        raise DataError("no records in input")
    columns, report = Columns(schema), IngestReport()
    for i, rec in enumerate(records):
        try:
            columns.add(rec, i)
        except _Reject as r:
            if r.kind == "null":
                report.rejected_null += 1
            else:
                report.rejected_overlong += 1
    report.kept = len(columns)
    if report.rejected:
        log.warning("rejected %d of %d records (%d with nulls, %d with "
                    "overlong lists)", report.rejected, len(records),
                    report.rejected_null, report.rejected_overlong)
    if not report.kept:
        raise DataError(
            f"all {len(records)} records rejected "
            f"({report.rejected_null} with nulls, "
            f"{report.rejected_overlong} with overlong lists)")
    return columns, report


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


def records_from_batch(tree, transform) -> list:
    """BatchTree -> list of raw records. Enum codes become their symbols. A
    numeric leaf of a sampled tree already holds real values (floats) and
    keeps them; one of an ingested tree holds bin codes (integers), which
    become the bin's quantile value."""
    return _decode(tree, transform.schema, transform.schema.name, transform)


def _decode(tree, node, path, tf):
    if isinstance(node, Enum):
        return [tf.value_for(path, int(c)) for c in tree.codes]
    if isinstance(node, Number):
        vals = np.asarray(tree.codes)
        if not np.issubdtype(vals.dtype, np.floating):
            table = tf.tables.get(path)
            if table is None:
                raise DataError(f"numeric column {path}: no quantile table")
            vals = table.representative(vals)
        return [int(v) if node.integer else float(v) for v in vals]
    if isinstance(node, Record):
        cols = {f.name: _decode(tree.fields[f.name], f, f"{path}/{f.name}", tf)
                for f in node.fields}
        n = len(next(iter(cols.values())))
        return [{k: v[i] for k, v in cols.items()} for i in range(n)]
    if isinstance(node, Array):
        # only the valid slots b*max_len + j, j < lengths[b], are decoded:
        # padding never reaches a leaf
        lengths = np.asarray(tree.lengths, dtype=np.int64)
        valid = np.arange(node.max_len)[None, :] < lengths[:, None]
        flat = _decode(take(merge_leading(tree.values), np.flatnonzero(valid)),
                       node.items, f"{path}/{node.items.name}", tf)
        ends = np.cumsum(lengths).tolist()
        return [flat[e - m:e] for e, m in zip(ends, lengths.tolist())]
    raise TypeError(type(node).__name__)


def write_records(records, schema, path, fmt) -> None:
    """Records -> file. CSV only for flat schemas; an empty CSV still gets
    its header row. The file is written beside `path` and moved into place
    when complete, so a failed write leaves `path` as it was."""
    # artifact imports this module, so its writer is imported at call time
    from .artifact import atomic_write
    if fmt == "csv":
        if not is_flat(schema):
            raise DataError("CSV output requires a flat record schema; "
                            "choose jsonl")
        names = [f.name for f in schema.fields]
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for rec in records:
                w.writerow([_csv_cell(rec[n]) for n in names])
    elif fmt == "jsonl":
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _csv_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


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
        k = str(child.pop(key) if drop_key else child[key])
        groups.setdefault(k, []).append(child)
    out, seen = [], set()
    for i, parent in enumerate(parent_records):
        if key not in parent:
            raise DataError(f"parent row {i}: missing join key {key!r}")
        rec = dict(parent)
        k = str(rec.pop(key) if drop_key else rec[key])
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
    """Records -> column tables for the metrics, named by
    `schema.leaf_columns`. Lists must nest in one chain (no sibling lists):
    each element of the innermost list is one item row that repeats the
    values of its ancestors, so cross-level associations stay visible.

    Returns {"record": record-level columns, "item": item-level columns or
    None for flat schemas, "item_count": rows in the item table}.
    """
    columns = Columns(schema)
    lists = [p for p, n in walk_paths(schema) if isinstance(n, Array)]
    for outer, inner in zip(lists, lists[1:]):
        if not inner.startswith(outer + "/"):  # not one chain: name two siblings
            outer = next(p for p in lists if not inner.startswith(p + "/"))
            raise DataError("item-level metrics support one list field per "
                            f"record; found {outer.rsplit('/', 1)[1]}, "
                            f"{inner.rsplit('/', 1)[1]}")
    for i, rec in enumerate(records):
        try:
            columns.add(rec, i)
        except _Reject as r:
            raise DataError(f"record {i} does not conform to the schema "
                            f"({'null value' if r.kind == 'null' else 'overlong list'})") from None
    paths = [p for p, n in walk_paths(schema) if isinstance(n, (Enum, Number))]
    leaves = [(name, p, len(columns.lists_over(p)))
              for (name, _), p in zip(leaf_columns(schema), paths)]
    rec_cols = ({name: columns.bufs[p] for name, p, depth in leaves if not depth}
                if len(columns) else {})
    if not lists:
        return {"record": rec_cols, "item": None, "item_count": 0}

    # up[d]: index of each item row's ancestor at list depth d (0 = records)
    up = [np.arange(sum(columns.bufs[lists[-1]]))]
    for path in reversed(lists):
        lengths = columns.bufs[path]
        up.insert(0, np.repeat(np.arange(len(lengths)), lengths)[up[0]])
    item_cols = {}
    if up[-1].size:
        for name, path, depth in sorted(leaves, key=lambda leaf: leaf[2]):
            item_cols[name] = [columns.bufs[path][t] for t in up[depth].tolist()]
    return {"record": rec_cols, "item": item_cols, "item_count": up[-1].size}
