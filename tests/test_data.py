"""Ingestion, transforms, emission, joining, and metric-table flattening."""

import importlib.util
import json
import os
import re
import sys

import numpy as np
import pytest

from conftest import random_batch, random_schema_doc
from nestgen import metrics
from nestgen.batches import LeafBatch, ListBatch, StructBatch, concat_trees, take
from nestgen.codecs.base import sample_rows
from nestgen.codecs.primitives import DEFAULT_BINS, QuantileTable
from nestgen.data import (DataError, IngestReport, Transform,
                          build_batch, check_records, detect_format,
                          fit_transform, flatten_records, ingest,
                          ingest_records, is_flat, join_tables, read_records,
                          records_from_batch, write_records)
from nestgen.metrics import association_matrix, evaluate
from nestgen.schema import (Array, Enum, Number, Record, compile_schema,
                            leaf_columns, parse_schema, resolve, walk_paths)
from test_metrics import assert_same_association, ref_association_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


@pytest.mark.parametrize("text, message", [
    ("a,b\n0,x\n\n1,y\n\n\n2\n", "row 3 has fewer values than the header"),
    ("a,b\n\n0,x\n\n1,y,z\n", "row 2 has more values than the header"),
], ids=["short", "long"])
def test_csv_rows_after_blank_lines_are_counted_without_them(tmp_path, text, message):
    path = write(tmp_path, "t.csv", text)
    with pytest.raises(DataError) as got:
        read_records(path)
    assert str(got.value) == f"{path}: {message}"


def test_csv_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path, "t.csv", "a,b\n\n0,x\n\n\n1,\n")
    assert read_records(path) == [{"a": "0", "b": "x"}, {"a": "1", "b": ""}]


def test_csv_needs_flat_schema(tmp_path):
    path = write(tmp_path, "t.csv", "age\n3\n")
    with pytest.raises(DataError, match="flat"):
        ingest(path, parse_schema(NESTED_DOC))


def test_jsonl_error_names_line(tmp_path):
    path = write(tmp_path, "t.jsonl", '{"a": "x", "b": "y"}\n{broken\n')
    with pytest.raises(DataError, match="line 2"):
        read_records(path)


def test_jsonl_stray_byte_order_mark_is_named_as_json_loads_names_it(tmp_path):
    path = write(tmp_path, "t.jsonl", '{"a": 1}\n\ufeff{"a": 2}\n')
    try:
        json.loads('\ufeff{"a": 2}\n')
    except json.JSONDecodeError as e:
        message = e.msg
    with pytest.raises(DataError) as got:
        read_records(path)
    assert str(got.value) == f"{path}: line 2: invalid JSON ({message})"


def test_jsonl_round_trips_unicode_line_separators(tmp_path):
    # write_records writes U+2028 and U+0085 raw; they end no line on reading
    schema = parse_schema(FLAT_DOC)
    records = [{"a": "x\u2028y", "b": "p\u0085q"}, {"a": "\u2028", "b": "z"}]
    path = str(tmp_path / "t.jsonl")
    write_records(records, schema, path, "jsonl")
    assert "\u2028" in open(path, encoding="utf-8").read()
    assert read_records(path) == records


def test_jsonl_skips_blank_lines(tmp_path):
    path = write(tmp_path, "t.jsonl", '{"a": 1}\n\n{"a": 2}\n')
    assert read_records(path) == [{"a": 1}, {"a": 2}]


def test_byte_order_mark_is_skipped(tmp_path):
    csv_text = "a,b\n0,x\n1,y\n"
    jsonl_text = '{"a": "0", "b": "x"}\n{"a": "1", "b": "y"}\n'
    schema = parse_schema(FLAT_DOC)
    for name, text in (("t.csv", csv_text), ("t.jsonl", jsonl_text)):
        plain = write(tmp_path, "plain_" + name, text)
        marked = write(tmp_path, "bom_" + name, "\ufeff" + text)
        assert read_records(marked) == read_records(plain)
        tree, tf, report = ingest(marked, schema)
        ref_tree, ref_tf, ref_report = ingest(plain, schema)
        assert report == ref_report and tf.vocabs == ref_tf.vocabs
        assert_same_batch(tree, ref_tree)


def test_csv_repeated_header_column_is_refused(tmp_path):
    path = write(tmp_path, "dup.csv", "a,v,a\nx,1.0,y\n")
    with pytest.raises(DataError, match=r"dup\.csv: column 'a' appears more "
                                        "than once in the header"):
        read_records(path)


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


def test_non_finite_numbers_name_row_and_field():
    num = parse_schema({"type": "record", "name": "r",
                        "fields": [{"name": "v", "type": "float"}]})
    for bad in ("nan", "inf", float("-inf"), 1e999):
        with pytest.raises(DataError, match=r"record 2: field v: not a finite"):
            check_records([{"v": "1.0"}, {"v": None}, {"v": bad}], num)
        with pytest.raises(DataError, match=r"record 1: field v: not a finite"):
            flatten_records([{"v": 1.0}, {"v": bad}], num)


def test_integers_too_large_for_a_float_name_row_and_field(tmp_path):
    # float() of a JSON integer past float64's range overflows; the value is
    # refused like any other non-finite number, on ingest and in eval's
    # flatten_records, which share the record plan
    big = "1" + "0" * 400
    path = write(tmp_path, "big.jsonl", '{"v": 1}\n{"v": ' + big + '}\n')
    num = parse_schema({"type": "record", "name": "r",
                        "fields": [{"name": "v", "type": "int"}]})
    with pytest.raises(DataError, match=r"big.jsonl: record 1: field v: not a finite"):
        ingest(path, num)
    with pytest.raises(DataError, match=r"record 0: field v: not a finite"):
        check_records([{"v": 10 ** 400}], num)
    with pytest.raises(DataError, match=r"record 1: field v: not a finite"):
        flatten_records([{"v": 1}, {"v": -10 ** 400}], num)
    # a list element's field is named the same way
    nested = parse_schema(NESTED_DOC)
    records = [user(20, "F", [("good", 1.0)]), user(30, "F", [("good", 10 ** 400)])]
    with pytest.raises(DataError, match=r"record 1: field price: not a finite"):
        check_records(records, nested)
    with pytest.raises(DataError, match=r"record 1: field price: not a finite"):
        flatten_records(records, nested)


def test_coding_errors_name_the_input_row():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum", "symbols": ["x", "y"]},
        {"name": "v", "type": "float"}]}
    records = [{"a": "x", "v": None}, {"a": "x", "v": 1.0}, {"a": "q", "v": 2.0}]
    with pytest.raises(DataError, match="record 2: unknown category 'q'"):
        ingest_records(records, parse_schema(doc))
    # inside a list, after a rejected row, the earliest bad record is named
    schema = parse_schema(NESTED_DOC)
    _, tf, _ = ingest_records([user(20, "F", [("good", 1.0)])], schema)
    records = [user(None, "F", []), user(30, "F", [("good", 2.0)]),
               user(40, "F", [("good", 1.0), ("odd", 1.0)]),
               user(50, "X", [])]
    with pytest.raises(DataError, match="record 2: unknown category 'odd' "
                                        "in column user/reviews/review/rating"):
        ingest_records(records, schema, transform=tf)
    # inside a list of lists, after a rejected record (an overlong inner list)
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "g", "type": "array", "max_len": 3, "items": {
            "type": "array", "name": "h", "max_len": 2,
            "items": {"type": "enum", "name": "e", "symbols": ["a", "b"]}}}]}
    records = [{"g": [["a"], []]}, {"g": [["a", "a", "a"]]}, {"g": [[], ["a", "b"]]},
               {"g": [["b"], [], ["a", "c"]]}, {"g": [["c"]]}]
    with pytest.raises(DataError, match="record 3: unknown category 'c' in column r/g/h/e"):
        ingest_records(records, parse_schema(doc))


# -- batch building -------------------------------------------------------------

def test_empty_list_is_fully_masked():
    schema = parse_schema(NESTED_DOC)
    # vocabularies need at least one observed review, so fit on one record
    # and reuse the transform for the empty-list batch
    _, tf, _ = ingest_records([user(20, "F", [("good", 1.0)])], schema)
    tree, _, _ = ingest_records([user(30, "F", [])], schema, transform=tf)
    reviews = tree.fields["reviews"]
    assert np.array_equal(reviews.lengths, [0])
    assert reviews.values.fields["rating"].codes.shape == (0,)


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
    tree, tf, _ = ingest_records([{"a": 10}, {"a": 2}, {"a": 2}], parse_schema(doc))
    # sorted by string key: "10" < "2"; the original values kept
    assert typed(tf.vocabs["r/a"]) == typed([10, 2])
    assert np.array_equal(tree.fields["a"].codes, [0, 1, 1])


@pytest.mark.parametrize("values,message", [
    ([3, "3", True, "True"], "record 1: field e: string '3' in a column of numbers"),
    (["3", "x", True], "record 2: field e: boolean True in a column of strings"),
    ([True, False, 1], "record 2: field e: number 1 in a column of booleans"),
    ([1.5, float("nan")], "record 1: field e: not a finite category: nan"),
    ([1.5, float("inf")], "record 1: field e: not a finite category: inf"),
    ([1.5, 2, -float("inf")], "record 2: field e: not a finite category: -inf"),
], ids=["number-string", "string-boolean", "boolean-number", "nan", "inf", "-inf"])
def test_enum_column_keeps_one_json_type(values, message):
    # an inferred vocabulary is keyed by str, so "3" and 3 would share a code
    # and come back as whichever was seen first; an item column is checked
    # the same way, and the record holding the item is named
    flat = {"type": "record", "name": "r", "fields": [{"name": "e", "type": "enum"}]}
    listed = {"type": "record", "name": "r", "fields": [
        {"name": "l", "type": "array", "max_len": 2, "items": {"type": "enum", "name": "e"}}]}
    for doc, records in ((flat, [{"e": v} for v in values]),
                         (listed, [{"l": [v]} for v in values])):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ingest_records(records, parse_schema(doc))
    # one JSON type per column round-trips with its type
    for column in ([3, 1.5, 3], ["3", "True", "3"], [True, False]):
        records = [{"e": v} for v in column]
        tree, tf, _ = ingest_records(records, parse_schema(flat))
        assert typed(records_from_batch(tree, tf)) == typed(records)


def test_declared_symbols_come_back_with_their_json_type():
    # coded by str, so "3" in CSV data codes as the declared 3
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "e", "type": "enum", "symbols": [1, 2, 3]},
        {"name": "b", "type": "enum", "symbols": [True, False]},
        {"name": "l", "type": "array", "max_len": 2,
         "items": {"type": "enum", "name": "f", "symbols": [0.5, 2]}}]}
    records = [{"e": 3, "b": True, "l": [2, 0.5]}, {"e": 1, "b": False, "l": []}]
    tree, tf, _ = ingest_records(records, parse_schema(doc))
    assert typed(tf.vocabs) == typed({"r/e": [1, 2, 3], "r/b": [True, False],
                                      "r/l/f": [0.5, 2]})
    assert typed(records_from_batch(tree, tf)) == typed(records)
    strings = [{"e": "2", "b": "True", "l": ["0.5"]}]
    tree, _, _ = ingest_records(strings, parse_schema(doc), transform=tf)
    assert typed(records_from_batch(tree, tf)) == typed([{"e": 2, "b": True, "l": [0.5]}])


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
    # integral floats and integer strings are codes; booleans, fractions,
    # non-finite floats and decimal strings are not, and the record is named
    tree, _, _ = ingest_records([{"a": 2.0}, {"a": " 1"}, {"a": 0}], schema,
                                transform=tf)
    assert np.array_equal(tree.fields["a"].codes, [2, 1, 0])
    for bad in (1.7, True, False, "1.0", float("inf"), float("nan")):
        with pytest.raises(DataError, match=r"record 1: column r/a expects "
                                            r"integer codes, got " + repr(bad)):
            ingest_records([{"a": 1}, {"a": bad}], schema, transform=tf)
        with pytest.raises(DataError) as ref:
            ref_code_for(tf, "r/a", bad, schema.fields[0], "record 1")
        assert "expects integer codes" in str(ref.value)


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
    # the items sample zero rows, which a numeric leaf needs its table for
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2, seed=0,
                                  tables=tf.tables)
    # zero output projections make every attention step the identity, so the
    # length head reads c0; point its length-0 row along c0
    for path in store.paths():
        if path.endswith("/wo"):
            store[path].data[:] = 0.0
    c0 = store.c0
    w_len = store["r/l/~len/W"].data
    w_len[:] = 0.0
    w_len[0] = 1e3 * c0 / (c0 @ c0)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    tree = sample_rows(codec, store, 1000, rng)
    ref.random(1000)  # the lengths' uniforms, and none for the elements
    assert rng.bit_generator.state == ref.bit_generator.state
    assert not tree.fields["l"].lengths.any()
    # the items are a sample of zero rows: values, like any sampled numeric
    assert tree.fields["l"].values.codes.dtype == np.float64
    assert records_from_batch(tree, tf) == [{"l": []}] * 1000


def test_a_sample_of_zero_rows_holds_values_and_draws_nothing():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "x", "type": "long"},
        {"name": "l", "type": "array", "max_len": 3, "items": {
            "type": "record", "name": "t", "fields": [
                {"name": "v", "type": "double"}, {"name": "w", "type": "enum"},
                {"name": "in", "type": "array", "max_len": 2,
                 "items": {"type": "long", "name": "u"}}]}}]}
    records = [{"x": 1, "l": [{"v": 0.5, "w": "a", "in": [3]}]},
               {"x": 4, "l": [{"v": 1.5, "w": "b", "in": [5, 6]}]}]
    _, tf, _ = ingest_records(records, parse_schema(doc))
    codec, store = compile_schema(tf.schema, width=8, blocks=1, heads=2, seed=0,
                                  tables=tf.tables)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    tree = sample_rows(codec, store, 0, rng)
    assert rng.bit_generator.state == state
    items = tree.fields["l"].values
    numeric = [tree.fields["x"], items.fields["v"], items.fields["in"].values]
    assert [leaf.codes.dtype for leaf in numeric] == [np.float64] * 3
    assert items.fields["w"].codes.shape == (0,)
    assert records_from_batch(tree, tf) == []


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


@pytest.mark.parametrize("fmt, bad", [
    ("jsonl", dict(user(30, "M", []), x=object())),  # not JSON
    ("csv", {"a": "x"}),  # no value for column b
])
def test_failed_write_leaves_old_output(tmp_path, fmt, bad):
    doc = NESTED_DOC if fmt == "jsonl" else FLAT_DOC
    schema = parse_schema(doc)
    good = (user(20, "F", []) if fmt == "jsonl" else {"a": "x", "b": "y"})
    out = tmp_path / f"out.{fmt}"
    write_records([good], schema, str(out), fmt)
    old = out.read_bytes()
    with pytest.raises((TypeError, KeyError)):
        write_records([good] * 3 + [bad], schema, str(out), fmt)
    assert out.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


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
    # lists inside nested records are siblings too
    nested = {"type": "record", "name": "r", "fields": [
        {"name": "s", "type": {"type": "record", "name": "s",
                               "fields": [doc["fields"][0]]}},
        {"name": "t", "type": {"type": "record", "name": "t",
                               "fields": [doc["fields"][1]]}}]}
    with pytest.raises(DataError, match="one list field per record; found l1, l2"):
        flatten_records([{"s": {"l1": []}, "t": {"l2": []}}], parse_schema(nested))


def test_flatten_follows_a_list_inside_a_record():
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"},
        {"name": "s", "type": {"type": "record", "name": "s", "fields": [
            {"name": "b", "type": "float"},
            {"name": "l", "type": "array", "max_len": 3,
             "items": {"type": "enum", "name": "v"}}]}}]})
    out = flatten_records([{"a": "x", "s": {"b": 1, "l": ["p", "q"]}},
                           {"a": "y", "s": {"b": 2, "l": []}},
                           {"a": "z", "s": {"b": 3, "l": ["r"]}}], schema)
    assert out["record"] == {"a": ["x", "y", "z"], "s/b": [1.0, 2.0, 3.0]}
    assert out["item"] == {"a": ["x", "x", "z"], "s/b": [1.0, 1.0, 3.0],
                           "s/l/v": ["p", "q", "r"]}
    assert out["item_count"] == 3


def test_evaluate_on_lists_of_lists():
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "l", "type": "array", "max_len": 3, "items": {
            "type": "array", "name": "inner", "max_len": 2,
            "items": {"type": "enum", "name": "e"}}}]})
    records = [{"l": [["a", "b"], [], ["a"]]}, {"l": []}, {"l": [["c"]]}]
    out = flatten_records(records, schema)
    assert out["record"] == {} and out["item_count"] == 4
    assert out["item"] == {"l/e": ["a", "b", "a", "c"]}
    report = evaluate(records, records, schema, k=1)
    assert report.marginal["score"] == 1000.0
    assert list(report.columns) == ["l/e"]


# -- the column walk against the per-record walkers it replaced -------------------
#
# The ref_* functions are the recursive walkers ingestion and flattening used
# before the column walk: a shape check that returns a normalised tree, a leaf
# collector for fitting, a per-record encoder and a batch assembler, and the
# scalars/explode pair behind flatten_records. The new code must give the
# same errors, batches, transforms, reports and tables.

def ref_check_shape(value, node, where):
    if value is None or (isinstance(value, str) and value == ""):
        raise RefReject("null")
    if isinstance(node, Enum):
        if isinstance(value, (dict, list)):
            raise DataError(f"{where}: field {node.name}: expected a "
                            f"category, got {type(value).__name__}")
        return value
    if isinstance(node, Number):
        if isinstance(value, bool) or isinstance(value, (dict, list)):
            raise DataError(f"{where}: field {node.name}: expected a number")
        try:
            x = float(value)
        except (TypeError, ValueError):
            raise DataError(f"{where}: field {node.name}: not a number: "
                            f"{value!r}") from None
        except OverflowError:
            raise DataError(f"{where}: field {node.name}: not a finite "
                            "number: too large for a float") from None
        if x in (float("inf"), float("-inf")) or x != x:
            raise DataError(f"{where}: field {node.name}: not a finite "
                            f"number: {value!r}")
        return x
    if isinstance(node, Record):
        if not isinstance(value, dict):
            raise DataError(f"{where}: expected an object for {node.name}, "
                            f"got {type(value).__name__}")
        out = {}
        for f in node.fields:
            if f.name not in value:
                raise DataError(f"{where}: missing field {f.name!r}")
            out[f.name] = ref_check_shape(value[f.name], f, where)
        return out
    if not isinstance(value, list):
        raise DataError(f"{where}: expected a list for {node.name}, got "
                        f"{type(value).__name__}")
    if len(value) > node.max_len:
        raise RefReject("overlong")
    return [ref_check_shape(v, node.items, where) for v in value]


class RefReject(Exception):
    def __init__(self, kind):
        self.kind = kind


def ref_check_records(records, schema):
    checked, report = [], IngestReport()
    for i, rec in enumerate(records):
        try:
            checked.append(ref_check_shape(rec, schema, f"record {i}"))
            report.kept += 1
        except RefReject as r:
            if r.kind == "null":
                report.rejected_null += 1
            else:
                report.rejected_overlong += 1
    return checked, report


def ref_collect_leaves(tree, node, path, sink):
    if isinstance(node, (Enum, Number)):
        sink[path].append(tree)
    elif isinstance(node, Record):
        for f in node.fields:
            ref_collect_leaves(tree[f.name], f, f"{path}/{f.name}", sink)
    elif isinstance(node, Array):
        for item in tree:
            ref_collect_leaves(item, node.items, f"{path}/{node.items.name}", sink)


def ref_fit_transform(checked, schema):
    sink = {p: [] for p, n in walk_paths(schema) if isinstance(n, (Enum, Number))}
    for tree in checked:
        ref_collect_leaves(tree, schema, schema.name, sink)
    vocabs, tables, cards = {}, {}, {}
    for path, node in walk_paths(schema):
        if isinstance(node, Enum):
            if node.symbols is not None:
                vocabs[path] = list(node.symbols)
            elif node.cardinality is None:
                seen = {}
                for v in sink[path]:
                    seen.setdefault(v if isinstance(v, str) else str(v), v)
                vocabs[path] = [seen[k] for k in sorted(seen)]
                cards[path] = len(vocabs[path])
        elif isinstance(node, Number):
            tables[path] = QuantileTable.fit(np.asarray(sink[path], dtype=np.float64),
                                             node.bins or DEFAULT_BINS,
                                             integer=node.integer)
    return Transform(resolve(schema, cards), vocabs, tables)


def ref_code_for(tf, path, value, node, where):
    if path in tf.vocabs:
        keys = [s if isinstance(s, str) else str(s) for s in tf.vocabs[path]]
        k = value if isinstance(value, str) else str(value)
        if k not in keys:
            raise DataError(f"{where}: unknown category {value!r} in "
                            f"column {path}")
        return keys.index(k)
    code = None
    if not (isinstance(value, bool) or isinstance(value, float) and value % 1 != 0):
        try:
            code = int(value)
        except (TypeError, ValueError):
            pass
    if code is None:  # a boolean, a fraction, inf, nan or a non-integer string
        raise DataError(f"{where}: column {path} expects integer codes, "
                        f"got {value!r}")
    if not 0 <= code < node.cardinality:
        raise DataError(f"{where}: code {code} out of range for column "
                        f"{path} (cardinality {node.cardinality})")
    return code


def ref_encode_tree(tree, node, path, tf, where):
    if isinstance(node, Enum):
        return ref_code_for(tf, path, tree, node, where)
    if isinstance(node, Number):
        return None
    if isinstance(node, Record):
        return {f.name: ref_encode_tree(tree[f.name], f, f"{path}/{f.name}", tf, where)
                for f in node.fields}
    return [ref_encode_tree(v, node.items, f"{path}/{node.items.name}", tf, where)
            for v in tree]


def ref_assemble(raw, codes, node, path, tf):
    """The batch of the raw values and codes of one schema node, a list's
    elements end to end below its lengths."""
    if isinstance(node, Enum):
        return LeafBatch(np.array(codes, dtype=np.int64))
    if isinstance(node, Number):
        vals = np.array(raw, dtype=np.float64)
        return LeafBatch(tf.tables[path].bin_values(vals).astype(np.int64))
    if isinstance(node, Record):
        return StructBatch({
            f.name: ref_assemble([r[f.name] for r in raw], [c[f.name] for c in codes],
                                 f, f"{path}/{f.name}", tf)
            for f in node.fields})
    lengths = np.array([len(r) for r in raw], dtype=np.int64)
    child = ref_assemble([v for r in raw for v in r], [c for r in codes for c in r],
                         node.items, f"{path}/{node.items.name}", tf)
    return ListBatch(lengths, child)


def ref_build_batch(checked, tf):
    schema = tf.schema
    codes = [ref_encode_tree(r, schema, schema.name, tf, f"record {i}")
             for i, r in enumerate(checked)]
    return ref_assemble(checked, codes, schema, schema.name, tf)


def ref_flatten_records(records, schema):
    rec_cols, item_cols = {}, {}
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
        scalars(tree, node, prefix, vals)
        lists = [f for f in node.fields if isinstance(f, Array)]
        if not lists:
            yield vals
            return
        if len(lists) > 1:
            raise DataError("item-level metrics support one list field per "
                            "record; found " + ", ".join(f.name for f in lists))
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
            checked = ref_check_shape(rec, schema, f"record {i}")
        except RefReject as r:
            raise DataError(f"record {i} does not conform to the schema "
                            f"({'null value' if r.kind == 'null' else 'overlong list'})")
        row = {}
        scalars(checked, schema, "", row)
        for k, v in row.items():
            rec_cols.setdefault(k, []).append(v)
        if has_lists:
            for item_row in explode(checked, schema, "", {}):
                for k, v in item_row.items():
                    item_cols.setdefault(k, []).append(v)
    n_items = len(next(iter(item_cols.values()))) if item_cols else 0
    return {"record": rec_cols, "item": item_cols if has_lists else None,
            "item_count": n_items}


def explode_sees_every_list(schema):
    """True when the old explode walk reached every list of the schema: each
    list is the single list field of the root or of the previous list's item
    record, and no list holds lists directly."""
    n_lists = sum(isinstance(n, Array) for _, n in walk_paths(schema))
    node, seen = schema, 0
    while isinstance(node, Record):
        lists = [f for f in node.fields if isinstance(f, Array)]
        if len(lists) != 1:
            break
        seen += 1
        node = lists[0].items
    return seen == n_lists and not isinstance(node, Array)


def assert_same_batch(a, b):
    assert type(a) is type(b)
    if isinstance(a, LeafBatch):
        assert a.codes.dtype == b.codes.dtype and a.codes.shape == b.codes.shape
        assert np.array_equal(a.codes, b.codes)
    elif isinstance(a, ListBatch):
        assert a.lengths.dtype == b.lengths.dtype
        assert np.array_equal(a.lengths, b.lengths)
        assert_same_batch(a.values, b.values)
    else:
        assert list(a.fields) == list(b.fields)
        for k in a.fields:
            assert_same_batch(a.fields[k], b.fields[k])


def typed(x):
    """x with every scalar paired with its type, so == also compares types."""
    if isinstance(x, dict):
        return [(k, typed(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [typed(v) for v in x]
    return (type(x), x)


def random_records(seed, n=40):
    """(schema, records): a random nested schema (depth 3, enums by
    cardinality, integer leaves) and records decoded from a random batch,
    plus one row with a null and one with an overlong list where possible."""
    rng = np.random.default_rng(seed)
    schema = parse_schema(random_schema_doc(rng, max_depth=3))
    codec, _ = compile_schema(schema, width=8, blocks=1, heads=2, seed=0)
    tf = Transform(schema, {}, {
        p: QuantileTable.fit(rng.integers(0, 50, 100).astype(float), node.bins,
                             integer=True)
        for p, node in walk_paths(schema) if isinstance(node, Number)})
    records = records_from_batch(random_batch(codec, n, rng), tf)
    return schema, records


def rejected_rows(schema, record):
    """Copies of a record with a null leaf and, if the root has a list field,
    with that list made overlong."""
    out = []
    nulled = json.loads(json.dumps(record))
    node, tree = schema, nulled
    while isinstance(node, Record):
        f = node.fields[-1]
        if isinstance(f, (Enum, Number)):
            tree[f.name] = None
            out.append(nulled)
            break
        if not isinstance(f, Record):
            break
        node, tree = f, tree[f.name]
    for f in schema.fields:
        if isinstance(f, Array):
            long = json.loads(json.dumps(record))
            long[f.name] = [long[f.name][0] if long[f.name] else None] * (f.max_len + 1)
            out.append(long)
            break
    return out


def outcome(fn, *args):
    """typed(fn(*args)), or the message of the DataError it raises."""
    try:
        return typed(fn(*args))
    except DataError as e:
        return str(e)


def assert_checks_like_reference(records, schema):
    """check_records raises the reference's error, or keeps the same rows
    with the same report, and they fit the same transform and batches."""
    try:
        ref_checked, ref_report = ref_check_records(records, schema)
    except DataError as e:
        assert outcome(check_records, records, schema) == str(e)
        return None
    if not ref_report.kept:
        with pytest.raises(DataError, match="records rejected"):
            check_records(records, schema)
        return None
    checked, report = check_records(records, schema)
    assert report == ref_report
    assert checked.rows == [i for i, rec in enumerate(records)
                            if ref_check_records([rec], schema)[1].kept]
    if any(isinstance(node, Number) and not len(checked.bufs[path])
           for path, node in walk_paths(schema)):
        with pytest.raises(DataError, match="no values observed"):
            fit_transform(checked, schema)
        return None
    tf = fit_transform(checked, schema)
    ref_tf = ref_fit_transform(ref_checked, schema)
    assert tf.schema == ref_tf.schema
    assert typed(tf.vocabs) == typed(ref_tf.vocabs)
    assert list(tf.tables) == list(ref_tf.tables)
    for path, table in tf.tables.items():
        assert np.array_equal(table.q, ref_tf.tables[path].q)
        assert table.integer == ref_tf.tables[path].integer
    assert_same_batch(build_batch(checked, tf), ref_build_batch(ref_checked, ref_tf))
    return tf


@pytest.mark.parametrize("seed", range(12))
def test_ingest_matches_reference_walkers(seed):
    schema, records = random_records(seed)
    rejected = rejected_rows(schema, records[0])
    records = records[:5] + rejected + records[5:]
    _, report = check_records(records, schema)
    assert report.rejected == len(rejected)
    tf = assert_checks_like_reference(records, schema)
    # new data through a fitted transform, as held-out records are encoded
    tree, _, _ = ingest_records(records[::-1], schema, transform=tf)
    assert_same_batch(tree, ref_build_batch(ref_check_records(records[::-1],
                                                              schema)[0], tf))


def nests_lists(schema):
    """True when some list of the schema holds another list."""
    lists = [p for p, n in walk_paths(schema) if isinstance(n, Array)]
    return any(q.startswith(p + "/") for p in lists for q in lists)


@pytest.mark.parametrize("seed", range(6))
def test_take_and_concat_of_nested_lists_keep_records(seed):
    # depth-3 schemas are drawn until one nests a list in a list
    while True:
        schema, records = random_records(seed)
        if nests_lists(schema):
            break
        seed += 100
    tree, tf, _ = ingest_records(records, schema)
    decoded = records_from_batch(tree, tf)
    idx = np.random.default_rng(seed).integers(0, len(records), 2 * len(records))
    assert len(set(idx.tolist())) < idx.size  # some rows repeat
    assert typed(records_from_batch(take(tree, idx), tf)) == typed([decoded[i] for i in idx])
    assert records_from_batch(take(tree, idx[:0]), tf) == []
    # the batches of two halves of the records concatenate to the whole's
    half = len(records) // 2
    parts = [ingest_records(part, schema, transform=tf)[0]
             for part in (records[:half], records[half:])]
    assert_same_batch(concat_trees(parts), tree)


def fault_sites(holder, key, node, out):
    """(holder, key, node) of holder[key] and of every value inside it, in
    walk order."""
    out.append((holder, key, node))
    if isinstance(node, Record):
        for f in node.fields:
            fault_sites(holder[key], f.name, f, out)
    elif isinstance(node, Array):
        for j in range(len(holder[key])):
            fault_sites(holder[key], j, node.items, out)
    return out


ERROR_FAULTS = {Record: [[1], "x", 5, "<missing>"], Array: [{"k": 1}, "x", 5],
                Number: [True, False, {"k": 1}, [1], "abc", "inf", 10 ** 400],
                Enum: [{"k": 1}, [1]]}


def inject(rng, record, schema, plan):
    """A copy of record with one fault per entry of `plan` ("reject": a null,
    "" or an overlong list; "error": anything that aborts), at distinct
    random sites, taken in walk order. The last is placed first, so no
    fault removes the site of one still to place."""
    holder = [json.loads(json.dumps(record))]
    sites = fault_sites(holder, 0, schema, [])
    picks = np.sort(rng.choice(len(sites), size=min(len(plan), len(sites)),
                               replace=False))
    for kind, i in reversed(list(zip(plan, picks))):
        parent, key, node = sites[i]
        if kind == "reject":
            faults = [None, ""]
            if isinstance(node, Array):
                faults.append((parent[key] or [None]) * (node.max_len + 1))
        else:
            faults = ERROR_FAULTS[type(node)]
        fault = faults[rng.integers(len(faults))]
        if fault == "<missing>":
            del parent[key][node.fields[rng.integers(len(node.fields))].name]
        else:
            parent[key] = fault
    return holder[0]


# the first fault of a plan decides the record's fate
FAULT_PLANS = [("reject",), ("reject", "reject"), ("reject", "error"),
               ("error",), ("error", "reject"), ("error", "error")]


@pytest.mark.parametrize("seed", range(12))
def test_injected_faults_match_reference_walkers(seed):
    schema, records = random_records(seed)
    rng = np.random.default_rng(seed)
    flattens = explode_sees_every_list(schema)
    for trial in range(8):
        plans = FAULT_PLANS[:3] if trial % 2 else FAULT_PLANS
        faulty = [inject(rng, rec, schema, plans[rng.integers(len(plans))])
                  if rng.random() < 0.3 else rec for rec in records]
        assert_checks_like_reference(faulty, schema)
        if flattens:
            assert outcome(flatten_records, faulty, schema) == \
                outcome(ref_flatten_records, faulty, schema)
        # each faulted record on its own, so every first fault is compared
        for rec, clean in zip(faulty, records):
            if rec is not clean:
                assert_checks_like_reference([records[0], rec], schema)


def load_workloads():
    """bench/workloads.py, loaded from its file once."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(ROOT, "bench", "workloads.py"))
        sys.modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["workloads"])
    return sys.modules["workloads"]


@pytest.mark.parametrize("name", ["nested_tx", "long_sets", "flat_wide"])
def test_benchmark_inputs_match_reference_walkers(tmp_path, name):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    workloads.write_inputs(workload, 1, str(tmp_path))
    records = read_records(workloads.input_paths(str(tmp_path), workload)["train"])
    schema = parse_schema(workload.schema)
    assert_checks_like_reference(records, schema)
    tables = flatten_records(records, schema)
    assert typed(tables) == typed(ref_flatten_records(records, schema))
    if name == "flat_wide":
        kinds = {name: "numeric" if isinstance(node, Number) else "categorical"
                 for name, node in leaf_columns(schema)}
        assert_same_association(association_matrix(tables["record"], kinds),
                                ref_association_matrix(tables["record"], kinds))


def test_csv_strings_ingest_like_reference(tmp_path):
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"},
        {"name": "v", "type": "float", "bins": 3},
        {"name": "k", "type": "int", "bins": 2}]})
    path = write(tmp_path, "t.csv",
                 "a,v,k\nx,1.5,3\n,2.0,1\ny,0.25,7\nx,-4,2\ny,9e1,5\n")
    records = read_records(path)
    tree, tf, report = ingest(path, schema)
    ref_checked, ref_report = ref_check_records(records, schema)
    ref_tf = ref_fit_transform(ref_checked, schema)
    assert report == ref_report and report.rejected_null == 1
    assert typed(tf.vocabs) == typed(ref_tf.vocabs)
    assert all(np.array_equal(tf.tables[p].q, ref_tf.tables[p].q) for p in tf.tables)
    assert_same_batch(tree, ref_build_batch(ref_checked, ref_tf))
    kept = records[:1] + records[2:]
    assert typed(flatten_records(kept, schema)) == \
        typed(ref_flatten_records(kept, schema))


def test_flatten_and_evaluate_match_reference_walkers(monkeypatch):
    compared = 0
    for seed in range(30):
        schema, records = random_records(seed)
        if not explode_sees_every_list(schema):
            continue
        compared += 1
        assert typed(flatten_records(records, schema)) == \
            typed(ref_flatten_records(records, schema))
        real, synth = records[:25], records[25:]
        report = json.dumps(evaluate(real, synth, schema, k=1).to_json(),
                            sort_keys=True)
        monkeypatch.setattr(metrics, "flatten_records", ref_flatten_records)
        ref_report = json.dumps(evaluate(real, synth, schema, k=1).to_json(),
                                sort_keys=True)
        monkeypatch.undo()
        assert report == ref_report
    assert compared >= 6


PLAN_DOC = {"type": "record", "name": "r", "fields": [
    {"name": "e", "type": "enum"},
    {"name": "x", "type": "float"},
    {"name": "s", "type": {"type": "record", "name": "s",
                           "fields": [{"name": "y", "type": "enum"}]}},
    {"name": "l", "type": "array", "max_len": 3, "items": {
        "type": "record", "name": "item", "fields": [
            {"name": "e", "type": "enum"},
            {"name": "x", "type": "float"},
            {"name": "s", "type": {"type": "record", "name": "s",
                                   "fields": [{"name": "y", "type": "enum"}]}},
            {"name": "l", "type": "array", "max_len": 2,
             "items": {"type": "enum", "name": "v"}}]}}]}


def plan_record(e="a"):
    item = {"e": e, "x": 2.5, "s": {"y": "c"}, "l": ["p"]}
    return {"e": e, "x": 1.0, "s": {"y": "b"}, "l": [dict(item), item]}


PLAN_ERRORS = [("e", {"k": 1}), ("e", [1]),
               ("x", True), ("x", {"k": 1}), ("x", "abc"), ("x", "inf"),
               ("s", [1]), ("e", "<missing>"), ("l", 5)]


@pytest.mark.parametrize("inside_list", [False, True])
@pytest.mark.parametrize("key,bad", PLAN_ERRORS)
def test_plan_errors_match_reference_and_roll_back(key, bad, inside_list):
    schema = parse_schema(PLAN_DOC)
    record = plan_record()
    target = record["l"][1] if inside_list else record
    if bad == "<missing>":
        del target[key]
    else:
        target[key] = bad
    with pytest.raises(DataError) as ref:
        ref_check_shape(record, schema, "record 1")
    with pytest.raises(DataError) as got:
        check_records([plan_record(), record], schema)
    assert str(got.value) == str(ref.value)
    with pytest.raises(DataError) as got:
        flatten_records([plan_record(), record], schema)
    assert str(got.value) == str(ref.value)


def plain(bufs):
    return {p: b.tolist() if isinstance(b, np.ndarray) else b for p, b in bufs.items()}


def test_plan_rejections_leave_no_trace():
    schema = parse_schema(PLAN_DOC)
    null_item, overlong_inner, overlong = plan_record(), plan_record(), plan_record()
    null_item["l"][1]["s"]["y"] = None
    overlong_inner["l"][1]["l"] = ["p", "q", "r"]
    overlong["l"] = overlong["l"] * 2
    good = [plan_record("a"), plan_record("b")]
    checked, report = check_records([good[0], null_item, overlong_inner,
                                     overlong, good[1]], schema)
    alone, _ = check_records(good, schema)
    assert (report.rejected_null, report.rejected_overlong) == (1, 2)
    assert typed(plain(checked.bufs)) == typed(plain(alone.bufs))
    assert checked.rows == [0, 4]


def test_mixed_type_enum_vocabulary_matches_reference():
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "m", "type": "enum"}, {"name": "s", "type": "enum"}]})
    # integers and floats are one JSON type, numbers
    records = [{"m": m, "s": s} for m, s in
               [(1, "y"), (2.5, "x"), (1.0, "y"), (3, "z"), (2, "x")]]
    checked, _ = check_records(records, schema)
    ref_checked, _ = ref_check_records(records, schema)
    tf, ref_tf = fit_transform(checked, schema), ref_fit_transform(ref_checked, schema)
    assert typed(tf.vocabs) == typed(ref_tf.vocabs)
    assert typed(tf.vocabs["r/m"]) == typed([1, 1.0, 2, 2.5, 3])
    assert_same_batch(build_batch(checked, tf), ref_build_batch(ref_checked, ref_tf))
