"""Dataset ingestion and emission.

Ingestion turns CSV (flat schemas) or JSON-lines (any schema) files into the
batch the codecs train on, which is the coded columns: every leaf becomes one
integer code array over its values, and every list one lengths array over
its rows, its elements end to end below it (see `batches`). Nothing is
padded. Emission is the inverse: code trees back to records, a list's
elements cut by its offsets, and records back to files.

Raw records are checked and flattened one schema node at a time (`_walk`),
all values at a node together, into a flat buffer per schema path
(`Columns`): a record's fields by one itemgetter map each, a list's lengths
(its offsets, as in Arrow's list layout and Dremel's striped columns) by one
len map, a numeric column by one float conversion. Quantile tables, enum
vocabularies, batches and the metric tables are all built from those
buffers, each column coded in bulk.

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
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from .batches import LeafBatch, ListBatch, StructBatch
from .codecs.primitives import DEFAULT_BINS, QuantileTable
from .schema import Array, Enum, Number, Record, leaf_columns, resolve, walk_paths

log = logging.getLogger("nestgen.data")


class DataError(ValueError):
    pass


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
        # per vocabulary path, the key a value is coded by and the code of
        # each key: declared numbers match by value (1, 1.0 and "1.0" are
        # one symbol), every other vocabulary by str
        nodes = dict(walk_paths(self.schema))
        self._index = {}
        for p, v in self.vocabs.items():
            key = symbol_key(getattr(nodes.get(p), "symbols", None))
            self._index[p] = key, {key(s): i for i, s in enumerate(v)}

    def code_column(self, path, node, values):
        """Enum column values -> int64 codes. Raises _BadValue at the first
        value that has no code."""
        if path in self._index:
            key, idx = self._index[path]
            try:
                return np.fromiter(map(idx.__getitem__, map(key, values)),
                                   np.int64, len(values))
            except KeyError:
                i = next(i for i, v in enumerate(values) if key(v) not in idx)
                raise _BadValue(i, f"unknown category {values[i]!r} in column "
                                   f"{path}") from None
        codes = np.empty(len(values), dtype=np.int64)
        for i, value in enumerate(values):  # cardinality only: the data carries codes
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
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty CSV (missing header row)")
            repeated = [n for n in header if header.count(n) > 1]
            if repeated:
                raise DataError(f"{path}: column {repeated[0]!r} appears more "
                                "than once in the header")
            rows = [row for row in reader if row]  # blank rows are skipped, not counted
        for i, row in enumerate(rows):
            if len(row) != len(header):
                side = "more" if len(row) > len(header) else "fewer"
                raise DataError(f"{path}: row {i + 1} has {side} values than the header")
        return [dict(zip(header, row)) for row in rows]
    if fmt == "jsonl":
        records, decode = [], json.JSONDecoder().decode
        with open(path, encoding="utf-8-sig") as fh:
            for i, line in enumerate(fh):
                if not line.strip():
                    continue
                try:
                    records.append(decode(line))
                except json.JSONDecodeError as e:  # named as json.loads names it
                    msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)"
                           if line.startswith("\ufeff") else e.msg)
                    raise DataError(f"{path}: line {i + 1}: invalid JSON ({msg})") from None
        return records
    raise DataError(f"unknown format {fmt!r} (expected csv or jsonl)")


class Columns:
    """Checked records by column, keyed by walk_paths path: each leaf's values
    (numerics as one float64 array) and each list's lengths, its offsets.
    `rids[path]` holds the input record of each value, and `rows` the input
    index of each record."""

    def __init__(self, bufs, rids, rows):
        self.bufs, self.rids, self.rows = bufs, rids, rows

    def __len__(self):
        return len(self.rows)


# the types a column of each node kind may hold without a value-by-value check
_TYPES = {Record: {dict}, Array: {list}, Number: {str, int, float},
          Enum: {str, int, float, bool}}


def _kind(value):  # the JSON type of an enum value
    return {str: "string", bool: "boolean"}.get(type(value), "number")


def _as_number(value):
    """The number a value stands for, to match declared number symbols by:
    an int or a float as it is, a string (a CSV cell, say) read as an int or
    else a float; None for a boolean, which JSON does not count as a number,
    and for other text."""
    if isinstance(value, str):
        for parse in (int, float):
            try:
                return parse(value)
            except ValueError:
                pass
        return None
    return None if isinstance(value, bool) else value


def _number_key(value):
    """A value's key among declared number symbols: the number it stands for
    (_as_number), or its str when it reads as no number or as NaN, which
    equals no key, not even another NaN."""
    number = _as_number(value)
    return str(value) if number is None or number != number else number


def symbol_key(symbols):
    """The key an enum's values match by: _number_key when its declared
    symbols are numbers, so 1, 1.0 and "1.0" are one symbol, else str."""
    return _number_key if symbols and _kind(symbols[0]) == "number" else str


def _problem(node, value, kind=None):
    """Why `value` cannot stand at `node`: "null" for None or an empty string
    (which drops its record), else an error message; None if it can. Given
    `kind`, an enum value must also be finite and of that JSON type."""
    if value is None or value == "":
        return "null"
    name, got = node.name, type(value).__name__
    if isinstance(node, Record):
        return None if isinstance(value, dict) else f"expected an object for {name}, got {got}"
    if isinstance(node, Array):
        return None if isinstance(value, list) else f"expected a list for {name}, got {got}"
    if isinstance(node, Enum):
        if isinstance(value, (dict, list)):
            return f"field {name}: expected a category, got {got}"
        if kind not in (None, _kind(value)):
            return f"field {name}: {_kind(value)} {value!r} in a column of {kind}s"
        if kind and isinstance(value, float) and not math.isfinite(value):
            return f"field {name}: not a finite category: {value!r}"
        return None
    if isinstance(value, (bool, dict, list)):
        return f"field {name}: expected a number"
    try:
        return None if math.isfinite(float(value)) else f"field {name}: not a finite number: {value!r}"
    except (TypeError, ValueError):
        return f"field {name}: not a number: {value!r}"
    except OverflowError:
        return f"field {name}: not a finite number: too large for a float"


def _walk(records, schema):
    """Checks and flattens records one schema node at a time, all values at
    a node together; only a column whose type scan or float conversion fails
    is checked value by value. Returns (bufs, rids, first): bufs as in
    Columns, over all records; rids[path], the input record of each entry;
    first[i] = (kind, message), record i's first problem in walk order, of
    kind "null", "overlong" or "error"."""
    bufs = {p: None for p, n in walk_paths(schema) if not isinstance(n, Record)}
    rids, links, found = {}, {}, []

    def visit(node, path, values, rid):
        def flag(i, kind, message=None, sub=()):
            found.append((int(rid[i]), kind, message, path, int(i), sub))

        at, scan = np.arange(len(values)), set(map(type, values))
        plain = scan <= _TYPES[type(node)] and not (str in scan and "" in values)
        if plain and isinstance(node, Number):
            try:
                x = np.fromiter(map(float, values), np.float64, len(values))
                plain = bool(np.isfinite(x).all())
            except (ValueError, OverflowError):
                plain = False
        kind = None  # a column of symbols, not codes, keeps its first value's JSON type
        if isinstance(node, Enum) and (node.symbols or not node.cardinality):
            kind = next((_kind(v) for v in values if _problem(node, v) is None), None)
            plain = plain and (scan <= {str} or scan <= {bool} or scan <= {int, float}
                               and all(map(math.isfinite, values)))
        if not plain:
            problems = [_problem(node, v, kind) for v in values]
            ok = np.fromiter((p is None for p in problems), bool, len(values))
            for i in np.flatnonzero(~ok):
                flag(i, "null" if problems[i] == "null" else "error", problems[i])
            values, at = list(compress(values, ok)), at[ok]
        if isinstance(node, Record):
            for k, f in enumerate(node.fields):
                try:
                    col, up = list(map(itemgetter(f.name), values)), at
                except KeyError:
                    has = np.fromiter((f.name in v for v in values), bool, len(values))
                    for i in at[~has]:
                        flag(i, "error", f"missing field {f.name!r}", (k,))
                    col, up = [v[f.name] for v in compress(values, has)], at[has]
                links[f"{path}/{f.name}"] = (path, up, k)
                visit(f, f"{path}/{f.name}", col, rid[up])
            return
        if isinstance(node, Array):
            lengths = np.fromiter(map(len, values), np.int64, len(values))
            for i in at[lengths > node.max_len]:
                flag(i, "overlong")
            item = f"{path}/{node.items.name}"
            links[item] = (path, np.repeat(at, lengths), None)
            visit(node.items, item, list(chain.from_iterable(values)),
                  np.repeat(rid[at], lengths))
            values = lengths
        elif isinstance(node, Number):
            values = x if plain else np.fromiter(map(float, values), np.float64, len(values))
        bufs[path], rids[path] = values, rid[at]

    def walk_key(problem):
        """Field index or item index at each level down to the problem."""
        path, i, key = problem[3], problem[4], list(problem[5])
        while path in links:
            path, up, k = links[path]
            key.append(k if k is not None else i - int(np.searchsorted(up, up[i])))
            i = int(up[i])
        return key[::-1]

    visit(schema, schema.name, records, np.arange(len(records)))
    by_record = {}
    for problem in found:
        by_record.setdefault(problem[0], []).append(problem)
    first = {r: (min(ps, key=walk_key) if len(ps) > 1 else ps[0])[1:3]
             for r, ps in by_record.items()}
    return bufs, rids, first


def fit_transform(columns, schema) -> Transform:
    """Build vocabularies and quantile tables from checked columns."""
    vocabs, tables, cards = {}, {}, {}
    for path, node in walk_paths(schema):
        if isinstance(node, Enum):
            if node.symbols is not None:
                vocabs[path] = list(node.symbols)
            elif node.cardinality is None:
                # keyed by string, one per value: a column has one JSON type
                seen = dict(zip(map(str, columns.bufs[path]), columns.bufs[path]))
                if not seen:
                    raise DataError(f"enum {path}: no values observed; "
                                    "declare symbols or cardinality")
                vocabs[path] = [seen[k] for k in sorted(seen)]
                cards[path] = len(vocabs[path])
        elif isinstance(node, Number):
            if not len(columns.bufs[path]):
                raise DataError(f"numeric column {path}: no values observed")
            tables[path] = QuantileTable.fit(columns.bufs[path],
                                             node.bins or DEFAULT_BINS,
                                             integer=node.integer)
    return Transform(resolve(schema, cards), vocabs, tables)


def _batch_tree(node, path, codes):
    """Batch tree of one schema node from codes[path], the coded column of
    each leaf and the lengths of each list."""
    if isinstance(node, Record):
        return StructBatch({f.name: _batch_tree(f, f"{path}/{f.name}", codes)
                            for f in node.fields})
    if isinstance(node, Array):
        return ListBatch(codes[path], _batch_tree(node.items, f"{path}/{node.items.name}",
                                                  codes))
    return LeafBatch(codes[path])


def build_batch(columns, transform) -> object:
    """Checked columns -> BatchTree of integer codes, each column coded once.
    A value without a code raises for the first record that holds one."""
    codes, bad = {}, []
    for k, (path, node) in enumerate(walk_paths(transform.schema)):
        values = columns.bufs.get(path)
        if isinstance(node, Array):
            codes[path] = np.asarray(values, dtype=np.int64)
        elif isinstance(node, Number):
            table = transform.tables.get(path)
            if table is None:
                raise DataError(f"numeric column {path}: no quantile table")
            codes[path] = table.bin_values(values)
        elif isinstance(node, Enum):
            try:
                codes[path] = transform.code_column(path, node, values)
            except _BadValue as e:
                i, message = e.args
                bad.append((int(columns.rids[path][i]), k, message))
    if bad:
        row, _, message = min(bad)
        raise DataError(f"record {row}: {message}")
    schema = transform.schema
    return _batch_tree(schema, schema.name, codes)


@dataclass
class IngestReport:
    kept: int = 0
    rejected_null: int = 0
    rejected_overlong: int = 0

    @property
    def rejected(self):
        return self.rejected_null + self.rejected_overlong


def check_records(records, schema):
    """Shape-check raw records. Returns (Columns of the kept records, report).
    A record's first problem drops it (a null or an overlong list) or raises."""
    if not records:
        raise DataError("no records in input")
    bufs, rids, first = _walk(records, schema)
    errors = [r for r, (kind, _) in first.items() if kind == "error"]
    if errors:
        raise DataError(f"record {min(errors)}: {first[min(errors)][1]}")
    kinds = [kind for kind, _ in first.values()]
    report = IngestReport(len(records) - len(first), kinds.count("null"),
                          kinds.count("overlong"))
    keep = np.ones(len(records), dtype=bool)
    if first:
        keep[list(first)] = False
        for path, buf in bufs.items():
            kept = keep[rids[path]]
            bufs[path] = buf[kept] if isinstance(buf, np.ndarray) else list(compress(buf, kept))
            rids[path] = rids[path][kept]
    if report.rejected:
        log.warning("rejected %d of %d records (%d with nulls, %d with "
                    "overlong lists)", report.rejected, len(records),
                    report.rejected_null, report.rejected_overlong)
    if not report.kept:
        raise DataError(
            f"all {len(records)} records rejected "
            f"({report.rejected_null} with nulls, "
            f"{report.rejected_overlong} with overlong lists)")
    return Columns(bufs, rids, np.flatnonzero(keep).tolist()), report


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
        codes = np.asarray(tree.codes).tolist()
        vocab = tf.vocabs.get(path)
        return codes if vocab is None else list(map(vocab.__getitem__, codes))
    if isinstance(node, Number):
        vals = np.asarray(tree.codes)
        if not np.issubdtype(vals.dtype, np.floating):
            table = tf.tables.get(path)
            if table is None:
                raise DataError(f"numeric column {path}: no quantile table")
            vals = table.representative(vals)
        return list(map(int, vals.tolist())) if node.integer else vals.tolist()
    if isinstance(node, Record):
        names = [f.name for f in node.fields]
        cols = [_decode(tree.fields[f.name], f, f"{path}/{f.name}", tf) for f in node.fields]
        return [dict(zip(names, row)) for row in zip(*cols)]
    if isinstance(node, Array):
        lengths = np.asarray(tree.lengths, dtype=np.int64).tolist()
        flat = _decode(tree.values, node.items, f"{path}/{node.items.name}", tf)
        ends = np.cumsum(lengths).tolist()
        return [flat[e - m:e] for e, m in zip(ends, lengths)]
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
        encode = json.JSONEncoder(ensure_ascii=False).encode
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("".join(encode(rec) + "\n" for rec in records))
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


def list_chain(schema) -> list:
    """The schema's list paths, outermost first, if they nest in one chain."""
    lists = [p for p, n in walk_paths(schema) if isinstance(n, Array)]
    for outer, inner in zip(lists, lists[1:]):
        if not inner.startswith(outer + "/"):  # not one chain: name two siblings
            outer = next(p for p in lists if not inner.startswith(p + "/"))
            raise DataError("item-level metrics support one list field per "
                            f"record; found {outer.rsplit('/', 1)[1]}, "
                            f"{inner.rsplit('/', 1)[1]}")
    return lists


def flatten_records(records, schema) -> dict:
    """Records -> column tables for the metrics, named by
    `schema.leaf_columns`. Lists must nest in one chain (no sibling lists):
    each element of the innermost list is one item row that repeats the
    values of its ancestors, so cross-level associations stay visible.

    Returns {"record": record-level columns, "item": item-level columns or
    None for flat schemas, "item_count": rows in the item table}.
    """
    lists = list_chain(schema)
    bufs, _, first = _walk(records, schema)
    if first:
        r, (kind, message) = min(first.items())
        if kind == "error":
            raise DataError(f"record {r}: {message}")
        raise DataError(f"record {r} does not conform to the schema "
                        f"({'null value' if kind == 'null' else 'overlong list'})")

    def column(path, rows):  # Python values, as the record holds them
        return np.asarray(bufs[path], dtype=object)[rows].tolist()

    paths = [p for p, n in walk_paths(schema) if isinstance(n, (Enum, Number))]
    leaves = [(name, p, sum(p.startswith(q + "/") for q in lists))
              for (name, _), p in zip(leaf_columns(schema), paths)]
    rec_cols = ({name: column(p, np.arange(len(records)))
                 for name, p, depth in leaves if not depth} if records else {})
    if not lists:
        return {"record": rec_cols, "item": None, "item_count": 0}

    # up[d]: index of each item row's ancestor at list depth d (0 = records)
    up = [np.arange(bufs[lists[-1]].sum())]
    for path in reversed(lists):
        up.insert(0, np.repeat(np.arange(len(bufs[path])), bufs[path])[up[0]])
    item_cols = {name: column(path, up[depth]) for name, path, depth
                 in sorted(leaves, key=lambda leaf: leaf[2])} if up[-1].size else {}
    return {"record": rec_cols, "item": item_cols, "item_count": up[-1].size}
