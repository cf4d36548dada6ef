"""The declarative schema language and its compiler.

Schemas are avro-flavoured JSON. Supported type tags: ``record`` (named
fields), ``array`` (variable-length list, requires ``max_len``), ``enum``
(categorical, via ``symbols`` or ``cardinality``), and the numeric primitives
``float``/``double`` and ``int``/``long`` (quantile-binned, ``bins``
overrides the default of 100). A ``shuffled: true`` attribute on a record or
array trains that node under random orderings. A field entry, like the root,
gives its type as a string or a type object, with the extension attributes
beside it or inside the object (where both hold one, they must agree)::

    {"type": "record", "name": "user", "fields": [
        {"name": "age", "type": "int", "bins": 20},
        {"name": "sex", "type": "enum", "symbols": ["F", "M"]},
        {"name": "transactions", "type": "array", "max_len": 16,
         "items": {"type": "record", "name": "transaction", "fields": [
             {"name": "place", "type": "enum", "cardinality": 4},
             {"name": "price", "type": "float"}]}}]}

An enum may omit both ``symbols`` and ``cardinality``, in which case the
vocabulary must be inferred from a dataset before the schema can compile.
Declared ``symbols`` are strings, finite numbers or booleans, all of one
JSON type, and sampled records hold them as declared. Declared numbers
match data by value, so no two may be equal: 1 and 1.0 are one symbol.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

from .codecs.base import Codec
from .codecs.composites import ListCodec, StructCodec
from .codecs.primitives import DEFAULT_BINS, CategoricalCodec, NumericalCodec, QuantileTable
from .params import ParamStore
from .rng import INIT, stream
from .transformer import TransformerConfig


class SchemaError(ValueError):
    pass


@dataclass
class Enum:
    name: str
    symbols: list | None = None  # declared JSON values; numbers code by value, others by str
    cardinality: int | None = None


@dataclass
class Number:
    name: str
    integer: bool = False
    bins: int | None = None


@dataclass
class Record:
    name: str
    fields: list = field(default_factory=list)
    shuffled: bool = False


@dataclass
class Array:
    name: str
    items: object = None
    max_len: int = 0
    shuffled: bool = False


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMERIC_TAGS = {"float": False, "double": False, "int": True, "long": True}
_ATTRS = ("cardinality", "symbols", "max_len", "bins", "shuffled", "items")


def _is_int(v) -> bool:
    """A JSON integer; `true` and `false` are not, though bool subclasses int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _symbol_kind(v):
    """The JSON type of a declared enum symbol: a string, a finite number or
    a boolean; None for any other value."""
    if isinstance(v, str):
        return "string"
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int) or isinstance(v, float) and math.isfinite(v):
        return "number"
    return None


def _shuffled(spec, where) -> bool:
    """The node's `shuffled` flag, which must be a JSON boolean."""
    v = spec.get("shuffled", False)
    if not isinstance(v, bool):
        raise SchemaError(f"{where}: shuffled must be true or false, got {v!r}")
    return v


def parse_schema(src) -> object:
    """Parse a JSON document (text or already-loaded dict) into a schema tree."""
    if isinstance(src, (str, bytes)):
        try:
            obj = json.loads(src)
        except json.JSONDecodeError as e:
            raise SchemaError(f"schema is not valid JSON: {e}") from None
    else:
        obj = src
    if not isinstance(obj, dict):
        raise SchemaError("schema root must be a JSON object")
    return _parse_node(obj, where="root")


def _parse_node(spec, where, name_override=None):
    if isinstance(spec, str):
        spec = {"type": spec}
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: type must be a string or object")
    tag = spec.get("type")
    if isinstance(tag, dict):
        # {"type": {"type": "enum", ...}, extra attrs} nesting, avro style
        merged = dict(tag)
        for a in _ATTRS:
            if a in spec and merged.setdefault(a, spec[a]) != spec[a]:
                raise SchemaError(f"{where}: {a} is {spec[a]!r} beside the type object "
                                  f"but {merged[a]!r} inside it")
        return _parse_node(merged, where, name_override or spec.get("name"))
    if not isinstance(tag, str):
        raise SchemaError(f"{where}: missing type tag")
    name = name_override or spec.get("name")
    if name is None:
        raise SchemaError(f"{where}: missing name")
    if not isinstance(name, str) or not _NAME.match(name):
        raise SchemaError(f"{where}: invalid name {name!r}")

    if tag == "record":
        fields_spec = spec.get("fields")
        if not isinstance(fields_spec, list) or not fields_spec:
            raise SchemaError(f"record {name}: needs a non-empty fields list")
        children = []
        seen = set()
        for f in fields_spec:
            if not isinstance(f, dict) or "name" not in f or "type" not in f:
                raise SchemaError(f"record {name}: each field needs name and type")
            fname = f["name"]
            if fname in seen:
                raise SchemaError(f"record {name}: duplicate field name {fname!r}")
            seen.add(fname)
            children.append(_parse_node(f, f"field {fname}", name_override=fname))
        return Record(name, children, shuffled=_shuffled(spec, f"record {name}"))

    if tag == "array":
        if "items" not in spec:
            raise SchemaError(f"array {name}: missing items")
        if "max_len" not in spec:
            raise SchemaError(f"array {name}: missing max_len (lists need a "
                              "declared capacity)")
        max_len = spec["max_len"]
        if not _is_int(max_len) or max_len < 1:
            raise SchemaError(f"array {name}: max_len must be an integer >= 1")
        items_spec = spec["items"]
        if isinstance(items_spec, str):
            items_spec = {"type": items_spec, "name": "item"}
        elif not isinstance(items_spec, dict):
            raise SchemaError(f"array {name}: items must be a type name or an object, "
                              f"got {items_spec!r}")
        item = _parse_node(items_spec, f"items of {name}",
                           name_override=items_spec.get("name", "item"))
        return Array(name, item, max_len, shuffled=_shuffled(spec, f"array {name}"))

    if tag == "enum":
        symbols = spec.get("symbols")
        cardinality = spec.get("cardinality")
        if cardinality is not None and (not _is_int(cardinality) or cardinality < 1):
            raise SchemaError(f"enum {name}: cardinality must be an integer >= 1")
        if symbols is not None:
            if not isinstance(symbols, list) or not symbols:
                raise SchemaError(f"enum {name}: symbols must be a non-empty "
                                  "list without duplicates")
            kinds = set(map(_symbol_kind, symbols))
            if None in kinds or len(kinds) > 1:
                raise SchemaError(f"enum {name}: symbols must be strings, finite numbers or "
                                  f"booleans, all of one JSON type; got {symbols!r}")
            if len(set(symbols)) != len(symbols):  # by value: 1 and 1.0 are one number
                raise SchemaError(f"enum {name}: symbols must be a non-empty "
                                  "list without duplicates")
            if cardinality is not None and cardinality != len(symbols):
                raise SchemaError(f"enum {name}: cardinality {cardinality} "
                                  f"contradicts {len(symbols)} symbols")
            cardinality = len(symbols)
        return Enum(name, symbols, cardinality)

    if tag in _NUMERIC_TAGS:
        bins = spec.get("bins")
        if bins is not None and (not _is_int(bins) or bins < 2):
            raise SchemaError(f"{tag} {name}: bins must be an integer >= 2")
        return Number(name, integer=_NUMERIC_TAGS[tag], bins=bins)

    hint = " (free text is not supported; model text fields as enum)" \
        if tag in ("string", "bytes") else ""
    raise SchemaError(f"{where}: unknown type tag {tag!r}{hint}")


def serialize_schema(node, as_text: bool = True):
    """Canonical JSON for a schema tree; parsing it back reproduces the tree."""
    doc = _serialize(node)
    return json.dumps(doc, indent=2) if as_text else doc


def _serialize(node, include_name=True):
    if isinstance(node, Enum):
        out = {"type": "enum"}
        if node.symbols is not None:
            out["symbols"] = node.symbols
        elif node.cardinality is not None:
            out["cardinality"] = node.cardinality
    elif isinstance(node, Number):
        out = {"type": "long" if node.integer else "double"}
        if node.bins is not None:
            out["bins"] = node.bins
    elif isinstance(node, Record):
        out = {"type": "record",
               "fields": [{"name": f.name, "type": _serialize(f, include_name=False)}
                          for f in node.fields]}
        if node.shuffled:
            out["shuffled"] = True
    elif isinstance(node, Array):
        out = {"type": "array", "max_len": node.max_len,
               "items": _serialize(node.items)}
        if node.shuffled:
            out["shuffled"] = True
    else:
        raise TypeError(f"not a schema node: {type(node).__name__}")
    if include_name:
        out["name"] = node.name
    return out


def walk_paths(node, prefix=None):
    """Yield (path, node) for the whole tree; paths mirror parameter paths."""
    path = node.name if prefix is None else f"{prefix}/{node.name}"
    yield path, node
    if isinstance(node, Record):
        for f in node.fields:
            yield from walk_paths(f, path)
    elif isinstance(node, Array):
        yield from walk_paths(node.items, path)


def leaf_columns(node) -> list[tuple[str, object]]:
    """(column name, leaf node) pairs in walk order, using the flattened-table
    naming of data.flatten_records: slash-joined field names relative to the
    root. Items of a list are named by the list field, so an item record's or
    item list's own name never appears."""
    def walk(n, prefix, named):
        if isinstance(n, (Enum, Number)):
            return [(prefix + n.name, n)]
        if named:
            prefix += n.name + "/"
        if isinstance(n, Record):
            return [c for f in n.fields for c in walk(f, prefix, True)]
        return walk(n.items, prefix, False)

    return walk(node, "", not isinstance(node, Record))


def resolve(node, cardinalities: dict[str, int], prefix=None):
    """Fill inferred enum cardinalities (keyed by node path) into a copy."""
    path = node.name if prefix is None else f"{prefix}/{node.name}"
    if isinstance(node, Enum) and node.cardinality is None:
        if path not in cardinalities:
            raise SchemaError(f"enum {path}: cardinality unknown")
        return replace(node, cardinality=cardinalities[path])
    if isinstance(node, Record):
        return replace(node, fields=[resolve(f, cardinalities, path)
                                     for f in node.fields])
    if isinstance(node, Array):
        return replace(node, items=resolve(node.items, cardinalities, path))
    return node


def compile_schema(node, width: int = TransformerConfig.width,
                   blocks: int = TransformerConfig.blocks, heads: int = TransformerConfig.heads,
                   seed: int = 0, tables: dict[str, QuantileTable] | None = None
                   ) -> tuple[Codec, ParamStore]:
    """Allocate a codec tree for the schema. Parameters are initialised from
    the seed; paths follow the schema names, so the same schema always yields
    the same parameter layout, packed into one flat vector (`ParamStore.pack`)."""
    tcfg = TransformerConfig(width, blocks, heads)
    store = ParamStore()
    rng = stream(seed, INIT)
    codec = _build(node, node.name, tcfg, store, rng, tables or {})
    # fixed but nonzero: a zero vector would pin the first decoded
    # distribution at uniform forever, because the reduced attention block
    # maps zero input to zero output and the categorical decoder has no bias
    # term. Regenerated from the seed, never trained.
    store.c0 = rng.normal(0.0, 1.0, size=width)
    store.pack()
    return codec, store


def _build(node, path, tcfg, store, rng, tables):
    if isinstance(node, Enum):
        if node.cardinality is None:
            raise SchemaError(f"enum {path}: cardinality unknown; declare "
                              "symbols/cardinality or ingest data first")
        return CategoricalCodec(path, node.cardinality, tcfg.width, store, rng)
    if isinstance(node, Number):
        bins = node.bins or DEFAULT_BINS
        return NumericalCodec(path, bins, tcfg.width, store, rng,
                              table=tables.get(path))
    if isinstance(node, Record):
        children = [_build(f, f"{path}/{f.name}", tcfg, store, rng, tables)
                    for f in node.fields]
        return StructCodec(path, [f.name for f in node.fields], children,
                           tcfg, store, rng, shuffled=node.shuffled)
    if isinstance(node, Array):
        value = _build(node.items, f"{path}/{node.items.name}", tcfg, store, rng,
                       tables)
        return ListCodec(path, value, node.max_len, tcfg, store, rng,
                         shuffled=node.shuffled)
    raise TypeError(f"not a schema node: {type(node).__name__}")


def describe(codec: Codec) -> str:
    """Compact bracket rendering of a codec tree, e.g.
    struct[age: num(20), tags: set(max_len=8)[cat(5)]]."""
    if isinstance(codec, NumericalCodec):
        return f"num({codec.cardinality})"
    if isinstance(codec, CategoricalCodec):
        return f"cat({codec.cardinality})"
    if isinstance(codec, StructCodec):
        head = "shuffled_struct" if codec.shuffled else "struct"
        inner = ", ".join(f"{n}: {describe(c)}"
                          for n, c in zip(codec.names, codec._children))
        return f"{head}[{inner}]"
    if isinstance(codec, ListCodec):
        head = "set" if codec.shuffled else "list"
        return f"{head}(max_len={codec.max_len})[{describe(codec.value_codec)}]"
    return type(codec).__name__
