"""Schema language: parsing, canonical serialization, compilation."""

import json

import numpy as np
import pytest

from nestgen.codecs.base import root_conditioning
from nestgen.codecs.composites import ListCodec, StructCodec
from nestgen.codecs.primitives import CategoricalCodec, NumericalCodec, QuantileTable
from nestgen.schema import (Array, Enum, Number, Record, SchemaError, compile_schema,
                            describe, leaf_columns, parse_schema, resolve,
                            serialize_schema, walk_paths)

from conftest import random_schema_doc

USER_DOC = {
    "type": "record", "name": "user", "fields": [
        {"name": "age", "type": "int", "bins": 20},
        {"name": "sex", "type": "enum", "symbols": ["F", "M"]},
        {"name": "transactions", "type": "array", "max_len": 16,
         "items": {"type": "record", "name": "transaction", "fields": [
             {"name": "place", "type": "enum", "cardinality": 4},
             {"name": "price", "type": "float"}]}}]}

REVIEWS_DOC = {
    "type": "record", "name": "account", "fields": [
        {"name": "reviews",
         "type": {"type": "array", "name": "reviews", "max_len": 128,
                  "shuffled": True,
                  "items": {"type": "record", "name": "review", "fields": [
                      {"name": "release_date", "type": "enum", "cardinality": 94},
                      {"name": "movie", "type": "enum", "cardinality": 4500},
                      {"name": "date", "type": "enum", "cardinality": 7},
                      {"name": "rating", "type": "enum", "cardinality": 5}]}}}]}


# -- parsing -----------------------------------------------------------------

def test_parse_two_level_document():
    s = parse_schema(json.dumps(USER_DOC))
    assert isinstance(s, Record) and s.name == "user" and not s.shuffled
    age, sex, tx = s.fields
    assert isinstance(age, Number) and age.integer and age.bins == 20
    assert isinstance(sex, Enum) and sex.symbols == ["F", "M"] and sex.cardinality == 2
    assert isinstance(tx, Array) and tx.max_len == 16
    assert isinstance(tx.items, Record)
    place, price = tx.items.fields
    assert isinstance(place, Enum) and place.cardinality == 4 and place.symbols is None
    assert isinstance(price, Number) and not price.integer and price.bins is None


def test_parse_shuffled_review_list():
    s = parse_schema(REVIEWS_DOC)
    reviews = s.fields[0]
    assert isinstance(reviews, Array) and reviews.shuffled and reviews.max_len == 128
    cards = [f.cardinality for f in reviews.items.fields]
    assert cards == [94, 4500, 7, 5]


def test_parse_minimal_enum():
    s = parse_schema({"type": "enum", "name": "x", "cardinality": 1})
    assert isinstance(s, Enum) and s.cardinality == 1


def test_declared_symbols_keep_their_json_values():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "e", "type": "enum", "symbols": [1, 2.5, 3]},
        {"name": "b", "type": "enum", "symbols": [True, False]},
        {"name": "s", "type": "enum", "symbols": ["1", "x"]}]}
    e, b, s = parse_schema(json.dumps(doc)).fields
    assert e.symbols == [1, 2.5, 3] and list(map(type, e.symbols)) == [int, float, int]
    assert b.symbols == [True, False] and list(map(type, b.symbols)) == [bool, bool]
    assert s.symbols == ["1", "x"] and (e.cardinality, b.cardinality) == (3, 2)
    assert parse_schema(serialize_schema(parse_schema(doc))) == parse_schema(doc)


@pytest.mark.parametrize("symbols", [
    '[1, null]', '["a", ["b"]]', '[{"a": 1}]', '[1, NaN]', '[Infinity]', '[1, "2"]',
    '[true, 0]', '["yes", false]',
], ids=["null", "list", "object", "nan", "infinity", "number-string", "boolean-number",
        "string-boolean"])
def test_declared_symbols_are_json_scalars_of_one_type(symbols):
    doc = '{"type": "enum", "name": "e", "symbols": %s}' % symbols
    with pytest.raises(SchemaError, match=r"^enum e: symbols must be strings, finite numbers "
                                          r"or booleans, all of one JSON type; got \["):
        parse_schema(doc)


def test_parse_enum_without_size_is_inferred_later():
    s = parse_schema({"type": "enum", "name": "x"})
    assert s.cardinality is None and s.symbols is None
    with pytest.raises(SchemaError, match="cardinality unknown"):
        compile_schema(s, width=8, heads=2)
    filled = resolve(s, {"x": 3})
    assert filled.cardinality == 3
    with pytest.raises(SchemaError, match="cardinality unknown"):
        resolve(s, {})


def test_parse_errors():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_schema("{nope")
    with pytest.raises(SchemaError, match="root"):
        parse_schema("[1, 2]")
    with pytest.raises(SchemaError, match="unknown type tag"):
        parse_schema({"type": "widget", "name": "x"})
    with pytest.raises(SchemaError, match="model text fields as enum"):
        parse_schema({"type": "string", "name": "x"})
    with pytest.raises(SchemaError, match="missing name"):
        parse_schema({"type": "enum"})
    with pytest.raises(SchemaError, match="invalid name"):
        parse_schema({"type": "enum", "name": "3x", "cardinality": 2})
    with pytest.raises(SchemaError, match="capacity"):
        parse_schema({"type": "array", "name": "l", "items": "int"})
    with pytest.raises(SchemaError, match="missing items"):
        parse_schema({"type": "array", "name": "l", "max_len": 3})
    with pytest.raises(SchemaError, match="max_len"):
        parse_schema({"type": "array", "name": "l", "max_len": 0, "items": "int"})
    with pytest.raises(SchemaError, match="non-empty fields"):
        parse_schema({"type": "record", "name": "r", "fields": []})
    with pytest.raises(SchemaError, match="duplicate field"):
        parse_schema({"type": "record", "name": "r", "fields": [
            {"name": "a", "type": "int"}, {"name": "a", "type": "int"}]})
    with pytest.raises(SchemaError, match="name and type"):
        parse_schema({"type": "record", "name": "r", "fields": [{"name": "a"}]})
    with pytest.raises(SchemaError, match="cardinality"):
        parse_schema({"type": "enum", "name": "x", "cardinality": 0})
    with pytest.raises(SchemaError, match="duplicates"):
        parse_schema({"type": "enum", "name": "x", "symbols": ["a", "a"]})
    with pytest.raises(SchemaError, match="duplicates"):  # numbers match by value
        parse_schema({"type": "enum", "name": "x", "symbols": [1, 2, 1.0]})
    with pytest.raises(SchemaError, match="contradicts"):
        parse_schema({"type": "enum", "name": "x", "symbols": ["a", "b"],
                      "cardinality": 3})
    with pytest.raises(SchemaError, match="bins"):
        parse_schema({"type": "int", "name": "x", "bins": 1})


@pytest.mark.parametrize("doc,message", [
    ('{"type": "record", "name": "r", "fields": [{"name": "l", "type": "array", '
     '"max_len": true, "items": {"type": "enum", "cardinality": 3}}]}',
     "array l: max_len must be an integer"),
    ('{"type": "record", "name": "r", "fields": [{"name": "l", "type": "array", '
     '"max_len": 2, "items": {"type": "enum", "cardinality": true}}]}',
     "enum item: cardinality must be an integer"),
    ('{"type": "enum", "name": "e", "cardinality": false}',
     "enum e: cardinality must be an integer"),
    ('{"type": "enum", "name": "e", "symbols": ["a"], "cardinality": true}',
     "enum e: cardinality must be an integer"),
    ('{"type": "long", "name": "n", "bins": true}', "long n: bins must be an integer"),
    ('{"type": "double", "name": "n", "bins": false}', "double n: bins must be an integer"),
], ids=["max_len", "items-cardinality", "cardinality-false", "cardinality-with-symbols",
        "bins-true", "bins-false"])
def test_booleans_are_not_integers(doc, message):
    # JSON true/false parse to python bools, which are ints to isinstance
    with pytest.raises(SchemaError, match=message):
        parse_schema(doc)


@pytest.mark.parametrize("items", [None, [1], 5], ids=["null", "list", "number"])
def test_array_items_must_be_a_type(items):
    doc = {"type": "array", "name": "tags", "max_len": 3, "items": items}
    with pytest.raises(SchemaError, match="^array tags: items must be a type name or an object"):
        parse_schema(doc)


@pytest.mark.parametrize("value", ["false", 1, None], ids=["string", "number", "null"])
@pytest.mark.parametrize("tag", ["record", "array"])
def test_shuffled_must_be_a_boolean(tag, value):
    doc = {"type": tag, "name": "node", "shuffled": value, "max_len": 2,
           "items": "int", "fields": [{"name": "a", "type": "int"}]}
    with pytest.raises(SchemaError, match=f"^{tag} node: shuffled must be true or false"):
        parse_schema(doc)
    assert parse_schema({**doc, "shuffled": True}).shuffled is True
    assert parse_schema({**doc, "shuffled": False}).shuffled is False


def test_attributes_beside_a_type_object_are_kept():
    # a field entry is parsed as its own node spec, as the root is
    tx = {"name": "tx", "type": {"type": "array", "max_len": 3, "items": "int"},
          "shuffled": True}
    c = {"name": "c", "type": {"type": "enum"}, "cardinality": 3}
    record = parse_schema({"type": "record", "name": "r", "fields": [tx, c]})
    assert record.fields[0].shuffled is True and record.fields[0].max_len == 3
    assert record.fields[1] == Enum("c", None, 3)
    assert parse_schema({**tx, "name": "root"}).shuffled is True
    assert parse_schema({**c, "name": "root"}).cardinality == 3
    # the same value given on both sides is no conflict
    same = {"name": "c", "type": {"type": "enum", "cardinality": 3}, "cardinality": 3}
    assert parse_schema(same).cardinality == 3


@pytest.mark.parametrize("inner,outer,attr", [
    ({"type": "enum", "cardinality": 4}, {"cardinality": 3}, "cardinality"),
    ({"type": "array", "max_len": 3, "items": "int", "shuffled": False}, {"shuffled": True},
     "shuffled")])
def test_attribute_beside_and_inside_a_type_object_must_agree(inner, outer, attr):
    field = {"name": "f", "type": inner, **outer}
    with pytest.raises(SchemaError, match=f"^field f: {attr} is .* beside the type object"):
        parse_schema({"type": "record", "name": "r", "fields": [field]})
    with pytest.raises(SchemaError, match=f"^root: {attr} is .* beside the type object"):
        parse_schema(field)


def test_serialize_parse_fixed_point(rng):
    docs = [USER_DOC, REVIEWS_DOC] + [random_schema_doc(rng) for _ in range(20)]
    for doc in docs:
        ast = parse_schema(doc)
        text = serialize_schema(ast)
        assert parse_schema(text) == ast
        # canonical text is itself a fixed point
        assert serialize_schema(parse_schema(text)) == text


def test_walk_and_leaf_columns():
    s = parse_schema(USER_DOC)
    paths = [p for p, _ in walk_paths(s)]
    assert paths == ["user", "user/age", "user/sex", "user/transactions",
                     "user/transactions/transaction",
                     "user/transactions/transaction/place",
                     "user/transactions/transaction/price"]
    cols = [name for name, _ in leaf_columns(s)]
    assert cols == ["age", "sex", "transactions/place", "transactions/price"]


# -- compilation --------------------------------------------------------------

def test_compile_single_categorical_parameter_count():
    codec, store = compile_schema(
        parse_schema({"type": "enum", "name": "x", "cardinality": 5}), width=64)
    assert store.paths() == ["x/W"]
    assert store.n_params() == 5 * 64
    assert isinstance(codec, CategoricalCodec)


def test_compile_is_deterministic():
    s = parse_schema(USER_DOC)
    _, a = compile_schema(s, width=16, blocks=1, heads=2, seed=4)
    _, b = compile_schema(s, width=16, blocks=1, heads=2, seed=4)
    assert a.paths() == b.paths()
    assert len(set(a.paths())) == len(a.paths())
    for p in a.paths():
        assert np.array_equal(a[p].data, b[p].data), p
    _, c = compile_schema(s, width=16, blocks=1, heads=2, seed=5)
    assert c.paths() == a.paths()
    assert any(not np.array_equal(a[p].data, c[p].data) for p in a.paths())


def test_compile_review_schema_parameter_count():
    codec, store = compile_schema(parse_schema(REVIEWS_DOC), width=16,
                                  blocks=1, heads=2)
    d = 16
    attn = 4 * d * d           # one reduced block: wq, wk, wv, wo
    expected = (
        2 * attn               # account struct enc+dec
        + 2 * attn             # reviews list enc+dec
        + 129 * d              # length codec over 0..128
        + 2 * attn             # review struct enc+dec
        + (94 + 4500 + 7 + 5) * d)
    assert store.n_params() == expected
    _, again = compile_schema(parse_schema(REVIEWS_DOC), width=16, blocks=1,
                              heads=2)
    assert again.n_params() == expected


def test_compile_rejects_bad_width():
    s = parse_schema({"type": "enum", "name": "x", "cardinality": 2})
    doc = {"type": "record", "name": "r",
           "fields": [{"name": "a", "type": "enum", "cardinality": 2}]}
    with pytest.raises(ValueError, match="divisible"):
        compile_schema(parse_schema(doc), width=10, heads=4)


def test_compile_attaches_tables():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "v", "type": "float", "bins": 3}]}
    table = QuantileTable(np.array([0.0, 1.0, 2.0]))
    codec, _ = compile_schema(parse_schema(doc), width=8, heads=2,
                              tables={"r/v": table})
    assert codec.children()[0].table is table


def test_describe_tree():
    codec, _ = compile_schema(parse_schema(USER_DOC), width=16, blocks=1, heads=2)
    assert describe(codec) == (
        "struct[age: num(20), sex: cat(2), transactions: "
        "list(max_len=16)[struct[place: cat(4), price: num(100)]]]")
    shuffled, _ = compile_schema(parse_schema(REVIEWS_DOC), width=16, blocks=1,
                                 heads=2, seed=1)
    assert describe(shuffled) == (
        "struct[reviews: set(max_len=128)[struct[release_date: cat(94), "
        "movie: cat(4500), date: cat(7), rating: cat(5)]]]")


def test_review_schema_samples_conform():
    codec, store = compile_schema(parse_schema(REVIEWS_DOC), width=8, blocks=1,
                                  heads=2, seed=6)
    tree, _ = codec.sample(root_conditioning(store, 3), np.random.default_rng(7))
    reviews = tree.fields["reviews"]
    assert reviews.lengths.shape == (3,)
    assert reviews.lengths.min() >= 0 and reviews.lengths.max() <= 128
    for name, card in (("release_date", 94), ("movie", 4500), ("date", 7),
                       ("rating", 5)):
        codes = reviews.values.fields[name].codes
        assert codes.shape == (reviews.lengths.sum(),)
        assert codes.min() >= 0 and codes.max() < card


def test_parse_accepts_ast_roundtrip_of_random_docs(rng):
    # compiling a reparsed canonical document yields the same layout
    for _ in range(5):
        doc = random_schema_doc(rng)
        s1 = parse_schema(doc)
        s2 = parse_schema(serialize_schema(s1))
        _, a = compile_schema(s1, width=8, blocks=1, heads=2, seed=0)
        _, b = compile_schema(s2, width=8, blocks=1, heads=2, seed=0)
        assert a.paths() == b.paths()
        for p in a.paths():
            assert np.array_equal(a[p].data, b[p].data)
