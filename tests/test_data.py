"""Ingestion, transforms, emission, joining, and metric-table flattening."""

import json

import numpy as np
import pytest

from nestgen.codecs.base import C0_PATH, sample_rows
from nestgen.data import (DataError, Transform, build_batch, check_records,
                          detect_format, fit_transform, flatten_records,
                          ingest, ingest_records, is_flat, join_tables,
                          read_records, records_from_batch, write_records)
from nestgen.schema import compile_schema, parse_schema

FLAT_DOC = {"type": "record", "name": "r", "fields": [
    {"name": "a", "type": "enum"},
    {"name": "b", "type": "enum"}]}

NESTED_DOC = {"type": "record", "name": "user", "fields": [
    {"name": "age", "type": "int", "bins": 4},
    {"name": "sex", "type": "enum"},
    {"name": "reviews", "type": "array", "max_len": 128,
     "items": {"type": "record", "name": "review", "fields": [
         {"name": "rating", "type": "enum"},
         {"name": "price", "type": "float", "bins": 3}]}}]}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def jsonl(tmp_path, name, records):
    return write(tmp_path, name,
                 "".join(json.dumps(r) + "\n" for r in records))


def user(age, sex, reviews):
    return {"age": age, "sex": sex,
            "reviews": [{"rating": r, "price": p} for r, p in reviews]}


# -- reading and format detection ---------------------------------------------

def test_detect_format():
    assert detect_format("x.csv") == "csv"
    assert detect_format("x.jsonl") == "jsonl"
    assert detect_format("x.ndjson") == "jsonl"
    with pytest.raises(DataError, match="format"):
        detect_format("x.parquet")


def test_csv_reading_and_vocabularies(tmp_path):
    path = write(tmp_path, "t.csv", "a,b\n0,x\n1,y\n")
    schema = parse_schema(FLAT_DOC)
    tree, tf, report = ingest(path, schema)
    assert report.kept == 2 and report.rejected == 0
    assert tf.vocabs["r/a"] == ["0", "1"]
    assert tf.vocabs["r/b"] == ["x", "y"]
    assert np.array_equal(tree.fields["a"].codes, [0, 1])
    assert np.array_equal(tree.fields["b"].codes, [0, 1])


def test_csv_row_arity_errors(tmp_path):
    schema = parse_schema(FLAT_DOC)
    long_row = write(tmp_path, "long.csv", "a,b\n0,x,EXTRA\n")
    with pytest.raises(DataError, match="row 1 has more"):
        ingest(long_row, schema)
    short_row = write(tmp_path, "short.csv", "a,b\n0,x\n1\n")
    with pytest.raises(DataError, match="row 2 has fewer"):
        ingest(short_row, schema)
    empty = write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="header"):
        ingest(empty, schema)


def test_csv_needs_flat_schema(tmp_path):
    path = write(tmp_path, "t.csv", "age\n3\n")
    with pytest.raises(DataError, match="flat"):
        ingest(path, parse_schema(NESTED_DOC))


def test_jsonl_error_names_line(tmp_path):
    path = write(tmp_path, "t.jsonl", '{"a": "x", "b": "y"}\n{broken\n')
    with pytest.raises(DataError, match="line 2"):
        read_records(path)


def test_jsonl_skips_blank_lines(tmp_path):
    path = write(tmp_path, "t.jsonl", '{"a": 1}\n\n{"a": 2}\n')
    assert read_records(path) == [{"a": 1}, {"a": 2}]


# -- shape checking and rejection ----------------------------------------------

def test_empty_input_rejected():
    with pytest.raises(DataError, match="no records"):
        check_records([], parse_schema(FLAT_DOC))


def test_null_and_overlong_rejection_counts():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"},
        {"name": "l", "type": "array", "max_len": 2,
         "items": {"type": "enum", "name": "v"}}]}
    schema = parse_schema(doc)
    records = [
        {"a": "x", "l": ["p"]},
        {"a": None, "l": []},              # null value
        {"a": "", "l": ["p"]},             # empty string counts as null
        {"a": "y", "l": ["p", "q", "r"]},  # longer than max_len
        {"a": "y", "l": ["q", None]},      # null inside the list
    ]
    checked, report = check_records(records, schema)
    assert report.kept == 1 and len(checked) == 1
    assert report.rejected_null == 3
    assert report.rejected_overlong == 1


def test_all_rejected_is_an_error():
    schema = parse_schema(FLAT_DOC)
    with pytest.raises(DataError, match="all 2 records rejected"):
        check_records([{"a": None, "b": "x"}, {"a": "", "b": "y"}], schema)


def test_malformed_records_name_the_record():
    schema = parse_schema(FLAT_DOC)
    with pytest.raises(DataError, match="record 1.*missing field 'b'"):
        check_records([{"a": "x", "b": "y"}, {"a": "x"}], schema)
    with pytest.raises(DataError, match="record 0"):
        check_records([{"a": ["no"], "b": "y"}], schema)
    num = parse_schema({"type": "record", "name": "r",
                        "fields": [{"name": "v", "type": "float"}]})
    with pytest.raises(DataError, match="not a number"):
        check_records([{"v": "abc"}], num)
    with pytest.raises(DataError, match="expected a number"):
        check_records([{"v": True}], num)
    with pytest.raises(DataError, match="expected a list"):
        check_records([{"age": 3, "sex": "F", "reviews": "oops"}],
                      parse_schema(NESTED_DOC))


# -- batch building -------------------------------------------------------------

def test_empty_list_is_fully_masked():
    schema = parse_schema(NESTED_DOC)
    # vocabularies need at least one observed review, so fit on one record
    # and reuse the transform for the empty-list batch
    _, tf, _ = ingest_records([user(20, "F", [("good", 1.0)])], schema)
    tree, _, _ = ingest_records([user(30, "F", [])], schema, transform=tf)
    reviews = tree.fields["reviews"]
    assert np.array_equal(reviews.lengths, [0])
    assert reviews.values.fields["rating"].codes.shape == (1, 128)
    assert np.all(reviews.values.fields["rating"].codes == 0)


def test_lengths_and_mask_sums():
    schema = parse_schema(NESTED_DOC)
    records = [user(20, "F", [("good", 1.0)]),
               user(30, "M", [("bad", 2.0), ("good", 3.0)]),
               user(40, "F", [("good", float(i)) for i in range(128)])]
    tree, _, _ = ingest_records(records, schema)
    lengths = tree.fields["reviews"].lengths
    assert np.array_equal(lengths, [1, 2, 128])
    mask = np.arange(128)[None, :] < lengths[:, None]
    assert mask.sum(axis=1).tolist() == [1, 2, 128]


def test_numeric_binning_in_batch():
    doc = {"type": "record", "name": "r",
           "fields": [{"name": "v", "type": "float", "bins": 2}]}
    schema = parse_schema(doc)
    tree, tf, _ = ingest_records([{"v": 1}, {"v": 2}, {"v": 3}, {"v": 4}], schema)
    assert np.array_equal(tf.tables["r/v"].q, [1.0, 4.0])
    # nearest quantile: 1,2 -> bin 0; 3,4 -> bin 1
    assert np.array_equal(tree.fields["v"].codes, [0, 0, 1, 1])


def test_ingest_is_deterministic(tmp_path):
    schema = parse_schema(NESTED_DOC)
    records = [user(25, "F", [("good", 9.5)]), user(35, "M", [])]
    path = jsonl(tmp_path, "d.jsonl", records)
    t1, tf1, _ = ingest(path, parse_schema(NESTED_DOC))
    t2, tf2, _ = ingest(path, parse_schema(NESTED_DOC))
    assert tf1.vocabs == tf2.vocabs
    assert np.array_equal(t1.fields["age"].codes, t2.fields["age"].codes)
    assert np.array_equal(t1.fields["reviews"].values.fields["price"].codes,
                          t2.fields["reviews"].values.fields["price"].codes)
    # vocabularies are sorted, so file order does not matter
    _, tf3, _ = ingest_records(records[::-1], parse_schema(NESTED_DOC))
    assert tf3.vocabs == tf1.vocabs


def test_vocabulary_preserves_original_values():
    doc = {"type": "record", "name": "r", "fields": [{"name": "a", "type": "enum"}]}
    tree, tf, _ = ingest_records([{"a": 10}, {"a": 2}, {"a": "2"}], parse_schema(doc))
    # sorted by string key: "10" < "2"; first-seen original values kept
    assert tf.vocabs["r/a"] == [10, 2]
    assert np.array_equal(tree.fields["a"].codes, [0, 1, 1])


def test_transform_reuse_and_unknown_category():
    schema = parse_schema(FLAT_DOC)
    _, tf, _ = ingest_records([{"a": "0", "b": "x"}, {"a": "1", "b": "y"}], schema)
    tree, _, _ = ingest_records([{"a": "1", "b": "x"}], schema, transform=tf)
    assert np.array_equal(tree.fields["a"].codes, [1])
    with pytest.raises(DataError, match="unknown category 'z' in column r/b"):
        ingest_records([{"a": "0", "b": "z"}], schema, transform=tf)


def test_cardinality_only_enum_takes_codes():
    doc = {"type": "record", "name": "r",
           "fields": [{"name": "a", "type": "enum", "cardinality": 3}]}
    schema = parse_schema(doc)
    tree, tf, _ = ingest_records([{"a": 0}, {"a": "2"}], schema)
    assert np.array_equal(tree.fields["a"].codes, [0, 2])
    assert "r/a" not in tf.vocabs
    with pytest.raises(DataError, match="out of range"):
        ingest_records([{"a": 3}], schema, transform=tf)
    with pytest.raises(DataError, match="integer codes"):
        ingest_records([{"a": "west"}], schema, transform=tf)


def test_missing_numeric_or_enum_values_error():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "l", "type": "array", "max_len": 2,
         "items": {"type": "float", "name": "v"}}]}
    with pytest.raises(DataError, match="no values observed"):
        ingest_records([{"l": []}], parse_schema(doc))


# -- emission and round trips -----------------------------------------------------

def test_flat_roundtrip_exact_categoricals(tmp_path):
    schema = parse_schema(FLAT_DOC)
    path = write(tmp_path, "t.csv", "a,b\n0,x\n1,y\n0,y\n")
    tree, tf, _ = ingest(path, schema)
    records = records_from_batch(tree, tf)
    assert records == [{"a": "0", "b": "x"}, {"a": "1", "b": "y"},
                       {"a": "0", "b": "y"}]
    out = str(tmp_path / "out.csv")
    write_records(records, tf.schema, out, "csv")
    tree2, _, _ = ingest(out, tf.schema, transform=tf)
    assert np.array_equal(tree.fields["a"].codes, tree2.fields["a"].codes)
    assert np.array_equal(tree.fields["b"].codes, tree2.fields["b"].codes)


def test_numeric_roundtrip_is_code_stable(tmp_path):
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "v", "type": "float", "bins": 3},
        {"name": "k", "type": "int", "bins": 2}]}
    schema = parse_schema(doc)
    rows = [{"v": float(v), "k": k} for v, k in
            zip([0.5, 1.5, 2.5, 3.5, 9.0], [1, 4, 2, 8, 5])]
    tree, tf, _ = ingest_records(rows, schema)
    emitted = records_from_batch(tree, tf)
    assert all(isinstance(r["k"], int) for r in emitted)
    assert all(isinstance(r["v"], float) for r in emitted)
    # codes -> values -> codes is a fixed point
    tree2, _, _ = ingest_records(emitted, schema, transform=tf)
    assert np.array_equal(tree.fields["v"].codes, tree2.fields["v"].codes)
    assert np.array_equal(tree.fields["k"].codes, tree2.fields["k"].codes)


def test_empty_sampled_lists_draw_no_uniforms():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "l", "type": "array", "max_len": 4,
         "items": {"type": "long", "name": "v"}}]}
    _, tf, _ = ingest_records([{"l": [1, 2]}, {"l": [5]}], parse_schema(doc))
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2, seed=0)
    # zero output projections make every attention step the identity, so the
    # length head reads c0; point its length-0 row along c0
    for path in store.paths():
        if path.endswith("/wo"):
            store[path].data[:] = 0.0
    c0 = store.constant(C0_PATH)
    w_len = store["r/l/~len/W"].data
    w_len[:] = 0.0
    w_len[0] = 1e3 * c0 / (c0 @ c0)
    tree = sample_rows(codec, store, 1000, np.random.default_rng(0))
    assert not tree.fields["l"].lengths.any()
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert records_from_batch(tree, tf, rng) == [{"l": []}] * 1000
    assert rng.bit_generator.state == before


def test_write_csv_header_only_and_float_repr(tmp_path):
    schema = parse_schema(FLAT_DOC)
    out = str(tmp_path / "empty.csv")
    write_records([], schema, out, "csv")
    assert open(out).read() == "a,b\n"
    doc = {"type": "record", "name": "r",
           "fields": [{"name": "v", "type": "float"}]}
    out2 = str(tmp_path / "f.csv")
    write_records([{"v": 0.1}], parse_schema(doc), out2, "csv")
    assert open(out2).read() == "v\n0.1\n"


def test_write_jsonl_keeps_empty_lists(tmp_path):
    schema = parse_schema(NESTED_DOC)
    out = str(tmp_path / "u.jsonl")
    write_records([user(20, "F", [])], schema, out, "jsonl")
    line = open(out).readline()
    assert json.loads(line)["reviews"] == []


def test_write_csv_rejects_nested(tmp_path):
    with pytest.raises(DataError, match="flat"):
        write_records([], parse_schema(NESTED_DOC), str(tmp_path / "x.csv"), "csv")


def test_is_flat():
    assert is_flat(parse_schema(FLAT_DOC))
    assert not is_flat(parse_schema(NESTED_DOC))


# -- relational join ---------------------------------------------------------------

def test_join_tables_groups_children_in_order():
    parents = [{"id": 1, "age": 30}, {"id": 2, "age": 40}]
    children = [{"id": 2, "price": 5.0}, {"id": 1, "price": 1.0},
                {"id": 2, "price": 7.0}]
    joined = join_tables(parents, children, key="id", list_field="tx")
    assert joined == [
        {"age": 30, "tx": [{"price": 1.0}]},
        {"age": 40, "tx": [{"price": 5.0}, {"price": 7.0}]}]


def test_join_tables_keeps_key_when_asked():
    parents = [{"id": "a"}]
    joined = join_tables(parents, [], key="id", list_field="tx", drop_key=False)
    assert joined == [{"id": "a", "tx": []}]


def test_join_tables_matches_numeric_and_string_keys():
    joined = join_tables([{"id": 1}], [{"id": "1", "v": "x"}],
                         key="id", list_field="tx")
    assert joined[0]["tx"] == [{"v": "x"}]


def test_join_tables_errors():
    with pytest.raises(DataError, match="duplicate key"):
        join_tables([{"id": 1}, {"id": 1}], [], key="id", list_field="t")
    with pytest.raises(DataError, match="missing parent key"):
        join_tables([{"id": 1}], [{"id": 9, "v": 0}], key="id", list_field="t")
    with pytest.raises(DataError, match="missing join key"):
        join_tables([{"nope": 1}], [], key="id", list_field="t")
    with pytest.raises(DataError, match="child row 0"):
        join_tables([{"id": 1}], [{"v": 0}], key="id", list_field="t")


# -- flattening for metrics -----------------------------------------------------------

def test_flatten_flat_schema():
    out = flatten_records([{"a": "x", "b": "y"}, {"a": "z", "b": "y"}],
                          parse_schema(FLAT_DOC))
    assert out["record"] == {"a": ["x", "z"], "b": ["y", "y"]}
    assert out["item"] is None and out["item_count"] == 0


def test_flatten_explodes_items_with_parent_scalars():
    schema = parse_schema(NESTED_DOC)
    records = [user(20, "F", [("good", 1.0), ("bad", 2.0)]),
               user(30, "M", [])]
    out = flatten_records(records, schema)
    assert out["record"]["age"] == [20.0, 30.0]
    assert out["record"]["sex"] == ["F", "M"]
    # the empty-list user contributes no item rows
    assert out["item_count"] == 2
    assert out["item"]["age"] == [20.0, 20.0]
    assert out["item"]["reviews/rating"] == ["good", "bad"]
    assert out["item"]["reviews/price"] == [1.0, 2.0]


def test_flatten_rejects_nonconforming_record():
    schema = parse_schema(NESTED_DOC)
    with pytest.raises(DataError, match="record 1.*null value"):
        flatten_records([user(20, "F", []), user(None, "M", [])], schema)
    with pytest.raises(DataError, match="overlong list"):
        flatten_records([user(20, "F", [("g", 1.0)] * 200)], schema)


def test_flatten_rejects_sibling_lists():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "l1", "type": "array", "max_len": 2,
         "items": {"type": "enum", "name": "v"}},
        {"name": "l2", "type": "array", "max_len": 2,
         "items": {"type": "enum", "name": "v"}}]}
    with pytest.raises(DataError, match="one list field"):
        flatten_records([{"l1": ["a"], "l2": ["b"]}], parse_schema(doc))
