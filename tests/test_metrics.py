"""Distance metrics, association matrices, marginal score, consistency rules."""

import json
import logging
import math

import numpy as np
import pytest
from reference_ops import unique_cells
from scipy.spatial.distance import jensenshannon
from scipy.stats import wasserstein_distance

from nestgen import metrics
from nestgen.codecs.primitives import DEFAULT_BINS, QuantileTable
from nestgen.data import DataError, flatten_records, read_records, symbol_key
from nestgen.metrics import (DENSE_CELLS_PER_ROW, MetricsError, association_matrix,
                             code_tables, consistency_check, correlation_diff,
                             count_cells, evaluate, jensen_shannon, marginal_score,
                             wasserstein_1d)
from nestgen.schema import parse_schema

# -- coding ---------------------------------------------------------------------

def test_categorical_codes_rank_the_sorted_string_keys():
    real = ["b", 1, "1", 1.0, True, "\u00e9", "a"]
    synth = ["B", 2, "b", "10", "\U0001f600", "True", ""]
    codes, n = code_tables({"c": real}, {"c": synth}, {"c": "categorical"})["c"]
    # reference: np.unique over the string keys of both sides, real rows first
    support, ref = np.unique(np.array([str(v) for v in real + synth]),
                             return_inverse=True)
    assert n == support.size == 11
    assert codes.dtype == ref.dtype and np.array_equal(codes, ref)


def test_number_keys_rank_numbers_by_value_before_strings():
    # a column declared with number symbols: 1, 1.0 and "1.0" are one key,
    # a value that reads as no number (True, "x") or as NaN keeps its str key
    coded = code_tables({"n": [1, "1.0", "x", True, 10, "nan"]},
                        {"n": [1.0, "True", "2", "nan"]},
                        {"n": "categorical"}, keys={"n": symbol_key([1])})
    codes, n = coded["n"]
    assert n == 6 and codes.tolist() == [0, 0, 5, 3, 2, 4, 0, 3, 1, 4]


NUMBER_SYMBOLS_DOC = {"type": "record", "name": "r", "fields": [
    {"name": "n", "type": "enum", "symbols": [1, 2, 3]},
    {"name": "s", "type": "enum", "symbols": ["1", "2"]}]}


def number_symbol_draws():
    return [int(v) for v in np.random.default_rng(0).integers(1, 4, size=200)]


def test_evaluate_codes_declared_number_symbols_by_value():
    # real values read as 1.0 and sampled ones as 1 are one category
    schema = parse_schema(NUMBER_SYMBOLS_DOC)
    draws = number_symbol_draws()
    real = [{"n": float(v), "s": str(v % 2 + 1)} for v in draws]
    synth = [{"n": v, "s": str(v % 2 + 1)} for v in draws]
    report = evaluate(real, synth, schema, k=2, n_subsets=3)
    assert report.columns["n"]["jensen_divergence"] == 0.0
    assert report.marginal["score"] == 1000.0
    # string symbols still key by str: "1.0" is not "1"
    report = evaluate(real, [dict(r, s=r["s"] + ".0") for r in synth], schema,
                      k=2, n_subsets=3)
    assert report.columns["s"]["jensen_divergence"] == pytest.approx(math.log(2))


def test_evaluate_codes_csv_cells_of_number_symbols_by_value(tmp_path):
    # a CSV cell "2.0" and a JSON 2 are one category
    schema = parse_schema(NUMBER_SYMBOLS_DOC)
    draws = number_symbol_draws()
    real = tmp_path / "real.csv"
    real.write_text("n,s\n" + "".join(f"{v}.0,{v % 2 + 1}\n" for v in draws))
    synth = tmp_path / "synth.jsonl"
    synth.write_text("".join(json.dumps({"n": v, "s": str(v % 2 + 1)}) + "\n"
                             for v in draws))
    report = evaluate(read_records(str(real)), read_records(str(synth)), schema,
                      k=2, n_subsets=3)
    assert report.columns["n"]["jensen_divergence"] == 0.0
    assert report.marginal["score"] == 1000.0


# -- joint cell counts ------------------------------------------------------------

def count_cases():
    rng = np.random.default_rng(2)
    rows, c = 50, DENSE_CELLS_PER_ROW
    cases = {"empty, empty grid": (np.zeros(0, np.int64), 0, True),
             "empty": (np.zeros(0, np.int64), 3, False),
             "one cell, dense": (np.full(rows, 7), 8, True),
             "one cell, sorted": (np.full(rows, 7), c * rows + 1, False),
             "a grid of 2 ** 62": (rng.integers(0, 2 ** 62, size=rows), 2 ** 62, False)}
    # grids just below, at and just above C x rows, each code at size - 1 too
    for size, dense in ((c * rows - 1, True), (c * rows, True), (c * rows + 1, False)):
        cells = rng.integers(0, size, size=rows)
        cells[::7] = size - 1
        cases[f"size {size}"] = cells, size, dense
    return cases


@pytest.mark.parametrize("name", list(count_cases()))
def test_count_cells_returns_what_np_unique_returns(name, monkeypatch):
    cells, size, dense = count_cases()[name]
    want = np.unique(cells, return_inverse=True, return_counts=True)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(1) or unique(*a, **kw))
    got = count_cells(cells, size)
    assert len(sorts) == (0 if dense else 1)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_joint_counts_equal_the_sort_bitwise(seed, k, monkeypatch):
    # the same values, bit for bit, as counting every grid by one sort; the
    # k = 3 and 4 subsets and the pairs of 40 rows over 30 symbols are
    # sorted, the other grids counted densely
    real, synth, kinds = mixed_tables(seed)
    parts = [{name: values[:rows] for name, values in table.items()
              if columns is None or name in columns}
             for table in (real, synth) for columns, rows in TABLE_SHAPES]
    rng = np.random.default_rng(seed)
    parts.append({"s": [f"v{j}" for j in rng.integers(0, 30, size=40)],
                  "i": [int(j) for j in rng.integers(0, 30, size=40)],
                  "x": list(rng.normal(size=40))})

    def values():
        return (marginal_score(real, synth, kinds, k=k, n_subsets=20, seed=seed,
                               bins={"x": 6, "y": 4})["score"],
                correlation_diff(real, synth, kinds),
                [association_matrix(part, kinds) for part in parts])

    dense = []
    monkeypatch.setattr(metrics, "count_cells", lambda cells, size: dense.append(
        size <= DENSE_CELLS_PER_ROW * cells.size) or count_cells(cells, size))
    got = values()
    assert set(dense) == {True, False}
    monkeypatch.setattr(metrics, "count_cells", unique_cells)
    want = values()
    assert got[0] == want[0] and got[1] == want[1]
    for a, b in zip(got[2], want[2]):
        assert np.array_equal(a, b, equal_nan=True)


# -- wasserstein ----------------------------------------------------------------

def test_wasserstein_identical_is_zero():
    assert wasserstein_1d([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_wasserstein_point_mass_shift():
    assert wasserstein_1d([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_wasserstein_sorted_coupling():
    # two unit masses, one moved by 1: (|0-0| + |1-2|) / 2
    assert wasserstein_1d([0.0, 1.0], [0.0, 2.0]) == 0.5


def test_wasserstein_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rng.normal(size=rng.integers(2, 40))
        s = rng.normal(loc=0.3, size=rng.integers(2, 40))
        want = wasserstein_distance(r, s)
        np.testing.assert_allclose(wasserstein_1d(r, s), want, rtol=1e-10)


def test_wasserstein_normalized_rescales_by_real_range():
    raw = wasserstein_1d([0.0, 10.0], [5.0, 15.0])
    norm = wasserstein_1d([0.0, 10.0], [5.0, 15.0], normalized=True)
    assert raw == 5.0 and norm == 0.5


def test_wasserstein_constant_real_column_falls_back_to_raw():
    assert wasserstein_1d([2.0, 2.0], [3.0, 3.0], normalized=True) == 1.0


def test_wasserstein_empty_column_errors():
    with pytest.raises(MetricsError, match="empty"):
        wasserstein_1d([], [1.0], name="age")


# -- jensen-shannon ----------------------------------------------------------------

def test_jensen_identical_is_zero():
    dist, div = jensen_shannon(["a", "b", "a", "b"], ["b", "a", "b", "a"])
    assert dist == 0.0 and div == 0.0


def test_jensen_disjoint_supports():
    dist, div = jensen_shannon(["a", "a"], ["b", "b"])
    np.testing.assert_allclose(div, math.log(2), rtol=1e-12)
    np.testing.assert_allclose(dist, math.sqrt(math.log(2)), rtol=1e-12)


def test_jensen_formula_reevaluation():
    # frequencies (0.5, 0.5) vs (0.9, 0.1), summed directly
    real = ["a"] * 5 + ["b"] * 5
    synth = ["a"] * 9 + ["b"] * 1
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    m = 0.5 * (p + q)
    want = 0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m))
    dist, div = jensen_shannon(real, synth)
    np.testing.assert_allclose(div, want, rtol=1e-12)
    np.testing.assert_allclose(dist, math.sqrt(want), rtol=1e-12)


def test_jensen_matches_scipy():
    rng = np.random.default_rng(9)
    symbols = list("abcd")
    for _ in range(10):
        real = rng.choice(symbols, size=50)
        synth = rng.choice(symbols, size=80)
        support = sorted(set(real) | set(synth))
        p = np.array([(real == c).sum() for c in support], dtype=float)
        q = np.array([(synth == c).sum() for c in support], dtype=float)
        want = jensenshannon(p, q, base=math.e)
        dist, _ = jensen_shannon(list(real), list(synth))
        np.testing.assert_allclose(dist, want, atol=1e-12)


def test_jensen_unifies_value_types():
    # 1 and "1" are the same category
    dist, _ = jensen_shannon([1, "1"], ["1", 1])
    assert dist == 0.0


def test_jensen_empty_errors():
    with pytest.raises(MetricsError, match="'sex'"):
        jensen_shannon([], ["a"], name="sex")


# -- association measures ----------------------------------------------------------

def theils_u(x, y):
    """U(x|y), the fraction of x's entropy explained by y: entry [0, 1] of
    the association matrix of the two columns (NaN when x is constant)."""
    return association_matrix({"x": x, "y": y}, dict.fromkeys("xy", "categorical"))[0, 1]


def correlation_ratio(categories, values):
    """eta of values grouped by categories: entry [0, 1] of the
    association matrix of the two columns (NaN when values are constant)."""
    return association_matrix({"c": categories, "v": values},
                              {"c": "categorical", "v": "numeric"})[0, 1]


def test_theils_u_dependence_extremes():
    x = ["p", "q"] * 20
    assert theils_u(x, x) == 1.0
    # balanced cross product: knowing y says nothing about x
    xs = ["p", "p", "q", "q"] * 10
    ys = ["u", "v", "u", "v"] * 10
    np.testing.assert_allclose(theils_u(xs, ys), 0.0, atol=1e-12)
    assert np.isnan(theils_u(["p"] * 5, ys[:5]))


def test_theils_u_entropy_oracle():
    rng = np.random.default_rng(2)
    x = rng.choice(["a", "b", "c"], size=200)
    y = rng.choice(["u", "v"], size=200)
    # direct H(x) and H(x|y) from the empirical joint
    def h(counts):
        p = counts / counts.sum()
        p = p[p > 0]
        return -(p * np.log(p)).sum()
    joint = np.zeros((3, 2))
    for a, b in zip(x, y):
        joint["abc".index(a), "uv".index(b)] += 1
    hx = h(joint.sum(axis=1))
    hxy = sum((joint[:, j].sum() / 200) * h(joint[:, j]) for j in range(2))
    np.testing.assert_allclose(theils_u(x, y), (hx - hxy) / hx, rtol=1e-12)


def test_theils_u_is_asymmetric():
    # y refines x: two x groups split into four y values
    x = ["a", "a", "b", "b"]
    y = ["1", "2", "3", "4"]
    assert theils_u(x, y) == 1.0
    assert theils_u(y, x) < 1.0


def test_correlation_ratio_extremes():
    cats = ["g1"] * 10 + ["g2"] * 10
    apart = [0.0] * 10 + [1.0] * 10
    np.testing.assert_allclose(correlation_ratio(cats, apart), 1.0, rtol=1e-12)
    mixed = list(range(10)) + list(range(10))
    np.testing.assert_allclose(correlation_ratio(cats, mixed), 0.0, atol=1e-12)
    assert np.isnan(correlation_ratio(cats, [5.0] * 20))


def test_association_matrix_layout():
    table = {"age": [1.0, 2.0, 3.0, 4.0],
             "size": [2.0, 4.0, 6.0, 8.0],
             "sex": ["f", "m", "f", "m"]}
    kinds = {"age": "numeric", "size": "numeric", "sex": "categorical"}
    mat = association_matrix(table, kinds)
    names = sorted(table)  # age, sex, size
    assert mat.shape == (3, 3)
    np.testing.assert_allclose(np.diag(mat), 1.0)
    ai, xi, si = names.index("age"), names.index("sex"), names.index("size")
    np.testing.assert_allclose(mat[ai, si], 1.0, rtol=1e-12)  # pearson
    assert mat[ai, si] == mat[si, ai]
    # eta(sex on age): groups f={1,3}, m={2,4}, same spread either way
    eta = correlation_ratio(table["sex"], table["age"])
    assert mat[xi, ai] == eta and mat[ai, xi] == eta


def test_correlation_diff_identity_is_zero():
    table = {"a": [1.0, 2.0, 3.0], "b": ["x", "y", "x"]}
    kinds = {"a": "numeric", "b": "categorical"}
    assert correlation_diff(table, dict(table), kinds) == 0.0


def test_correlation_diff_theil_dependent_vs_independent():
    dep = {"a": ["p", "q"] * 20, "b": ["u", "v"] * 20}
    indep = {"a": ["p", "p", "q", "q"] * 10, "b": ["u", "v", "u", "v"] * 10}
    kinds = {"a": "categorical", "b": "categorical"}
    # U entries go 1 -> 0 in both orientations: Frobenius sqrt(1 + 1)
    np.testing.assert_allclose(correlation_diff(dep, indep, kinds),
                               math.sqrt(2.0), rtol=1e-12)


def test_correlation_diff_pearson_flip():
    x = [1.0, 2.0, 3.0, 4.0]
    real = {"a": x, "b": x}
    synth = {"a": x, "b": [-v for v in x]}
    kinds = {"a": "numeric", "b": "numeric"}
    # entry goes +1 -> -1 in both symmetric cells
    np.testing.assert_allclose(correlation_diff(real, synth, kinds),
                               math.sqrt(2 * 2.0 ** 2), rtol=1e-12)


def test_correlation_diff_constant_column_warns_and_contributes_zero(caplog):
    real = {"a": [1.0, 2.0], "b": [1.0, 1.0]}
    synth = {"a": [1.0, 2.0], "b": [1.0, 2.0]}
    kinds = {"a": "numeric", "b": "numeric"}
    with caplog.at_level(logging.WARNING, logger="nestgen.metrics"):
        assert correlation_diff(real, synth, kinds) == 0.0
    assert "undefined" in caplog.text


def test_correlation_diff_column_mismatch():
    with pytest.raises(MetricsError, match="different columns"):
        correlation_diff({"a": [1.0]}, {"b": [1.0]}, {"a": "numeric"})


# -- marginal score ---------------------------------------------------------------

def test_marginal_score_identity_is_exactly_1000():
    rng = np.random.default_rng(0)
    table = {f"c{i}": list(rng.integers(0, 3, size=100)) for i in range(5)}
    kinds = {name: "categorical" for name in table}
    out = marginal_score(table, {k: list(v) for k, v in table.items()}, kinds)
    assert out["score"] == 1000.0 and out["mean_tvd"] == 0.0


def test_marginal_score_disjoint_is_zero():
    real = {"a": ["x"] * 20, "b": ["x"] * 20}
    synth = {"a": ["y"] * 20, "b": ["y"] * 20}
    kinds = {"a": "categorical", "b": "categorical"}
    out = marginal_score(real, synth, kinds, k=2, n_subsets=4)
    assert out["score"] == 0.0 and out["mean_tvd"] == 1.0


def test_marginal_score_diagonal_hand_enumeration():
    # real uniform over the 4 cells of a 2x2 joint, synth uniform over the
    # two diagonal cells: TVD = (0.25 + 0.25 + 0.25 + 0.25) / 2 = 0.5
    real = {"a": ["0", "0", "1", "1"], "b": ["0", "1", "0", "1"]}
    synth = {"a": ["0", "0", "1", "1"], "b": ["0", "0", "1", "1"]}
    kinds = {"a": "categorical", "b": "categorical"}
    out = marginal_score(real, synth, kinds, k=2, n_subsets=1)
    assert out["mean_tvd"] == 0.5
    assert out["score"] == 500.0


def test_marginal_score_bins_numeric_columns():
    rng = np.random.default_rng(1)
    vals = list(rng.normal(size=200))
    real = {"n": vals, "c": list(rng.choice(["a", "b"], size=200))}
    synth = {"n": list(rng.normal(size=200)),
             "c": list(rng.choice(["a", "b"], size=200))}
    kinds = {"n": "numeric", "c": "categorical"}
    out = marginal_score(real, synth, kinds, k=2, n_subsets=3,
                         bins={"n": 4})
    assert 0.0 <= out["mean_tvd"] <= 1.0
    same = marginal_score(real, {k: list(v) for k, v in real.items()},
                          kinds, k=2, n_subsets=3, bins={"n": 4})
    assert same["score"] == 1000.0


def test_marginal_score_seed_and_errors():
    rng = np.random.default_rng(3)
    table = {f"c{i}": list(rng.integers(0, 2, size=50)) for i in range(6)}
    other = {k: list(rng.integers(0, 2, size=50)) for k in table}
    kinds = {k: "categorical" for k in table}
    a = marginal_score(table, other, kinds, k=3, n_subsets=10, seed=7)
    b = marginal_score(table, other, kinds, k=3, n_subsets=10, seed=7)
    assert a == b
    with pytest.raises(MetricsError, match="at least 7 columns"):
        marginal_score(table, other, kinds, k=7)
    with pytest.raises(MetricsError, match="different columns"):
        marginal_score(table, {"zz": [0]}, kinds)


@pytest.mark.parametrize("arguments, message", [
    ({"k": 0}, "marginal order k must be >= 1, got 0"),
    ({"k": -1}, "marginal order k must be >= 1, got -1"),
    ({"n_subsets": 0}, "n_subsets must be >= 1, got 0")])
def test_marginal_score_rejects_a_bad_order_or_subset_count(arguments, message):
    table = {"a": ["x", "y"] * 5, "b": [1.0, 2.0] * 5}
    kinds = {"a": "categorical", "b": "numeric"}
    with pytest.raises(MetricsError, match=message):
        marginal_score(table, table, kinds, **arguments)
    # evaluate reaches the same check
    records = [{"a": a, "b": b} for a, b in zip(table["a"], table["b"])]
    schema = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"}, {"name": "b", "type": "float"}]})
    with pytest.raises(MetricsError, match=message):
        evaluate(records, records, schema, **arguments)


@pytest.mark.parametrize("empty, side", [(0, "real"), (1, "synthetic")])
@pytest.mark.parametrize("metric", [marginal_score, correlation_diff])
def test_a_table_without_rows_is_an_error(metric, empty, side):
    table = {"a": ["x", "y", "y"], "b": [1.0, 2.0, 0.5]}
    kinds = {"a": "categorical", "b": "numeric"}
    tables = [table, table]
    tables[empty] = {"a": [], "b": []}
    with pytest.raises(MetricsError, match=f"the {side} table has no rows"):
        metric(*tables, kinds)


# -- consistency rules --------------------------------------------------------------

def entity(items):
    return {"events": items}


def test_consistency_single_item_entities_are_clean():
    records = [entity([{"sex": "f", "edu": 1}]) for _ in range(5)]
    rules = [{"rule": "constant", "field": "sex"},
             {"rule": "monotone", "field": "edu"}]
    out = consistency_check(records, rules)
    assert out == {"constant(sex)": 1.0, "monotone(edu)": 1.0, "overall": 1.0}


def test_consistency_constant_violation():
    records = [entity([{"sex": "f"}, {"sex": "m"}])]
    out = consistency_check(records, [{"rule": "constant", "field": "sex"}])
    assert out["constant(sex)"] == 0.0 and out["overall"] == 0.0


def test_consistency_monotone_fraction():
    clean = entity([{"edu": 1}, {"edu": 2}, {"edu": 2}])
    dirty = entity([{"edu": 3}, {"edu": 1}])
    records = [clean] * 7 + [dirty] * 3
    out = consistency_check(records, [{"rule": "monotone", "field": "edu"}])
    assert out["monotone(edu)"] == 0.7


def test_consistency_at_most_one_per_key():
    records = [entity([{"year": 2001}, {"year": 2002}]),
               entity([{"year": 2001}, {"year": 2001}])]
    out = consistency_check(records,
                            [{"rule": "at-most-one-per-key", "key": "year"}])
    assert out["at-most-one-per-key(year)"] == 0.5


def test_consistency_derived_constant():
    ok = entity([{"movie": "m1", "date": "d1"}, {"movie": "m1", "date": "d1"},
                 {"movie": "m2", "date": "d9"}])
    bad = entity([{"movie": "m1", "date": "d1"}, {"movie": "m1", "date": "d2"}])
    out = consistency_check(
        [ok, bad], [{"rule": "derived_constant", "key": "movie",
                     "field": "date"}])
    assert out["derived-constant(movie->date)"] == 0.5


def test_consistency_overall_is_conjunction():
    a = entity([{"sex": "f", "edu": 1}, {"sex": "f", "edu": 0}])  # monotone bad
    b = entity([{"sex": "f", "edu": 1}, {"sex": "m", "edu": 2}])  # constant bad
    c = entity([{"sex": "f", "edu": 1}, {"sex": "f", "edu": 2}])  # clean
    rules = [{"rule": "constant", "field": "sex"},
             {"rule": "monotone", "field": "edu"}]
    out = consistency_check([a, b, c], rules)
    np.testing.assert_allclose(out["constant(sex)"], 2 / 3)
    np.testing.assert_allclose(out["monotone(edu)"], 2 / 3)
    np.testing.assert_allclose(out["overall"], 1 / 3)


def test_consistency_rules_file_form_and_errors():
    records = [{"a": [{"x": 1}], "b": "scalar"}]
    out = consistency_check(records, {"list": "a", "rules": [
        {"rule": "constant", "field": "x"}]})
    assert out["overall"] == 1.0
    with pytest.raises(MetricsError, match="unknown consistency rule"):
        consistency_check(records, [{"rule": "sorted", "field": "x"}])
    with pytest.raises(MetricsError, match="needs a field"):
        consistency_check(records, [{"rule": "constant"}])
    with pytest.raises(MetricsError, match="missing field 'zz'"):
        consistency_check(records, [{"rule": "constant", "field": "zz",
                                     "list": "a"}])
    with pytest.raises(MetricsError, match="missing list field"):
        consistency_check([{"c": 1}], [{"rule": "constant", "field": "x",
                                        "list": "a"}])
    with pytest.raises(MetricsError, match="no records"):
        consistency_check([], [{"rule": "constant", "field": "x"}])


def test_consistency_infers_single_list_field():
    records = [{"scalar": 1, "items": [{"x": "a"}, {"x": "a"}]}]
    out = consistency_check(records, [{"rule": "constant", "field": "x"}])
    assert out["overall"] == 1.0
    with pytest.raises(MetricsError, match="infer"):
        consistency_check([{"l1": [], "l2": []}],
                          [{"rule": "constant", "field": "x"}])


# -- full evaluation ----------------------------------------------------------------

NESTED_DOC = {"type": "record", "name": "user", "fields": [
    {"name": "age", "type": "int", "bins": 4},
    {"name": "sex", "type": "enum"},
    {"name": "tx", "type": "array", "max_len": 6,
     "items": {"type": "record", "name": "t", "fields": [
         {"name": "place", "type": "enum"},
         {"name": "price", "type": "float", "bins": 4}]}}]}


def make_users(rng, n):
    out = []
    for _ in range(n):
        m = int(rng.integers(0, 5))
        out.append({"age": int(rng.integers(18, 70)),
                    "sex": str(rng.choice(["f", "m"])),
                    "tx": [{"place": str(rng.choice(["a", "b", "c"])),
                            "price": float(np.round(rng.uniform(1, 9), 2))}
                           for _ in range(m)]})
    return out


def test_evaluate_self_comparison_is_perfect():
    schema = parse_schema(NESTED_DOC)
    records = make_users(np.random.default_rng(4), 200)
    report = evaluate(records, [dict(r) for r in records], schema,
                      k=3, n_subsets=8)
    for col in report.columns.values():
        raw = col.get("wasserstein", col.get("jensen_distance"))
        assert raw == 0.0
    assert report.marginal["score"] == 1000.0
    for v in report.correlation.values():
        assert v == 0.0
    assert report.rows["real"] == report.rows["synth"] == 200


def test_evaluate_report_structure():
    schema = parse_schema(NESTED_DOC)
    rng = np.random.default_rng(8)
    real = make_users(rng, 120)
    synth = make_users(rng, 150)
    rules = [{"rule": "constant", "field": "place", "list": "tx"}]
    report = evaluate(real, synth, schema, k=3, n_subsets=5, rules=rules)
    out = report.to_json()
    assert set(out) == {"rows", "columns", "correlation", "marginal",
                        "consistency", "splits"}
    # record-level column plus item-level columns, keyed by slash path
    assert {"age", "sex", "tx/place", "tx/price"} <= set(out["columns"])
    assert out["columns"]["tx/price"]["kind"] == "numeric"
    assert 0 <= out["marginal"]["score"] <= 1000
    assert set(out["consistency"]) == {"real", "synth"}
    # the split indices partition the real rows 80/20
    idx = sorted(out["splits"]["train"] + out["splits"]["test"])
    assert idx == list(range(120))
    assert len(out["splits"]["train"]) == 96
    text = report.to_text()
    assert "marginal score" in text and "tx/price" in text
    assert "consistency" in text


def test_evaluate_rejects_synth_without_list_items():
    schema = parse_schema(NESTED_DOC)
    real = make_users(np.random.default_rng(5), 40)
    synth = [dict(r, tx=[]) for r in real]
    with pytest.raises(MetricsError, match="no item rows"):
        evaluate(real, synth, schema, k=3, n_subsets=2)


def test_evaluate_rejects_real_without_rows():
    schema = parse_schema(NESTED_DOC)
    synth = make_users(np.random.default_rng(5), 40)
    with pytest.raises(MetricsError, match="the real dataset has no record rows"):
        evaluate([], synth, schema, k=3, n_subsets=2)
    real = [dict(r, tx=[]) for r in synth]
    with pytest.raises(MetricsError, match="the real dataset has no item rows"):
        evaluate(real, synth, schema, k=3, n_subsets=2)
    # neither side has rows: the real side is named, not the column count
    with pytest.raises(MetricsError, match="the real dataset has no item rows"):
        evaluate(real, real, schema, k=3, n_subsets=2)
    flat = parse_schema({"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"}, {"name": "b", "type": "float"}]})
    with pytest.raises(MetricsError, match="the real dataset has no record rows"):
        evaluate([], [], flat, k=2, n_subsets=2)


def test_evaluate_rejects_nonconforming_synth():
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum"}, {"name": "b", "type": "enum"},
        {"name": "c", "type": "enum"}, {"name": "d", "type": "enum"}]}
    schema = parse_schema(doc)
    real = [{"a": "x", "b": "y", "c": "z", "d": "w"}] * 3
    synth = [{"a": "x", "b": "y", "c": "z"}] * 3
    with pytest.raises(DataError, match="record 0.*missing field 'd'"):
        evaluate(real, synth, schema)


# -- per-value loop references -------------------------------------------------------
# The loop implementations the array-coded metrics replaced, kept as the
# reference: a dict lookup per value, a dense joint table per marginal.

def ref_key(v):
    return v if isinstance(v, str) else str(v)


def ref_freqs(values, support):
    index = {v: i for i, v in enumerate(support)}
    counts = np.zeros(len(support))
    for v in values:
        counts[index[ref_key(v)]] += 1
    return counts / counts.sum()


def ref_entropy(counts):
    p = counts / counts.sum()
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def ref_jensen_shannon(real, synth):
    support = sorted({ref_key(v) for v in real} | {ref_key(v) for v in synth})
    p, q = ref_freqs(real, support), ref_freqs(synth, support)
    m = 0.5 * (p + q)
    kl = [float(np.sum(a[a > 0] * np.log(a[a > 0] / m[a > 0]))) for a in (p, q)]
    div = max(0.0, 0.5 * kl[0] + 0.5 * kl[1])
    return math.sqrt(div), div


def ref_theils_u(x, y):
    xs, ys = [ref_key(v) for v in x], [ref_key(v) for v in y]
    xi = {v: i for i, v in enumerate(sorted(set(xs)))}
    yi = {v: i for i, v in enumerate(sorted(set(ys)))}
    joint = np.zeros((len(xi), len(yi)))
    for a, b in zip(xs, ys):
        joint[xi[a], yi[b]] += 1
    hx = ref_entropy(joint.sum(axis=1))
    if hx <= 0:
        return None
    py = joint.sum(axis=0) / joint.sum()
    hxy = sum(py[j] * ref_entropy(joint[:, j]) for j in range(joint.shape[1])
              if joint[:, j].sum() > 0)
    return (hx - hxy) / hx


def ref_correlation_ratio(categories, values):
    vals = np.asarray(values, dtype=np.float64)
    total = float(np.sum((vals - vals.mean()) ** 2))
    if total <= 0:
        return None
    groups = {}
    for c, v in zip((ref_key(c) for c in categories), vals):
        groups.setdefault(c, []).append(v)
    between = sum(len(g) * (np.mean(g) - vals.mean()) ** 2
                  for g in groups.values())
    return math.sqrt(max(0.0, float(between) / total))


def ref_association_matrix(table, kinds):
    names = sorted(table)
    mat = np.eye(len(names))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i == j:
                continue
            if kinds[a] == "numeric" and kinds[b] == "numeric":
                x = np.asarray(table[a], dtype=np.float64)
                y = np.asarray(table[b], dtype=np.float64)
                v = (None if x.std() == 0 or y.std() == 0
                     else float(np.corrcoef(x, y)[0, 1]))
            elif kinds[a] == "categorical" and kinds[b] == "categorical":
                v = ref_theils_u(table[a], table[b])
            elif kinds[a] == "categorical":
                v = ref_correlation_ratio(table[a], table[b])
            else:
                v = ref_correlation_ratio(table[b], table[a])
            mat[i, j] = np.nan if v is None else v
    return mat


def ref_correlation_diff(real, synth, kinds):
    a, b = ref_association_matrix(real, kinds), ref_association_matrix(synth, kinds)
    diff = a - b
    diff[~(np.isfinite(a) & np.isfinite(b))] = 0.0
    return float(np.linalg.norm(diff))


def ref_marginal_score(real, synth, kinds, k, n_subsets, seed, bins=None):
    coded = {}
    for name in sorted(real):
        if kinds[name] == "numeric":
            table = QuantileTable.fit(np.asarray(real[name], dtype=np.float64),
                                      (bins or {}).get(name, DEFAULT_BINS))
            coded[name] = (table.bin_values(real[name]),
                           table.bin_values(synth[name]), table.n_bins)
        else:
            support = sorted({ref_key(v) for v in [*real[name], *synth[name]]})
            index = {v: i for i, v in enumerate(support)}
            coded[name] = ([index[ref_key(v)] for v in real[name]],
                           [index[ref_key(v)] for v in synth[name]], len(support))
    names = sorted(real)
    rng = np.random.default_rng(seed)
    tvds = []
    for _ in range(n_subsets):
        subset = [names[i] for i in rng.choice(len(names), size=k, replace=False)]
        dims = tuple(coded[c][2] for c in subset)
        cells = int(np.prod(dims))
        pr, ps = (np.bincount(flat, minlength=cells) / flat.size
                  for flat in (np.ravel_multi_index(tuple(coded[c][side]
                                                          for c in subset), dims)
                               for side in (0, 1)))
        tvds.append(0.5 * float(np.abs(pr - ps).sum()))
    return 1000.0 * (1.0 - float(np.mean(tvds)))


def mixed_tables(seed):
    """A real and a synthetic table of unequal sizes: string enums whose
    symbols partly occur on one side only, an int-valued enum, a constant
    enum and a constant numeric column on one side, and numerics."""
    rng = np.random.default_rng(seed)

    def side(n, symbols, constant):
        ints = rng.integers(0, 6, size=n)
        return {
            "s": list(rng.choice(symbols, size=n)),
            "t": [str(v) for v in rng.choice(symbols[:3], size=n)],
            "i": [int(v) for v in ints],
            "c": ["k"] * n if constant else list(rng.choice(["k", "j"], size=n)),
            "x": list(rng.normal(size=n) + 0.3 * ints),
            "y": [2.5] * n if constant else list(rng.integers(0, 9, size=n) * 1.0),
            "z": list(rng.gamma(2.0, size=n)),
        }

    kinds = {"s": "categorical", "t": "categorical", "i": "categorical",
             "c": "categorical", "x": "numeric", "y": "numeric", "z": "numeric"}
    real = side(int(rng.integers(80, 160)), list("abcdef"), constant=True)
    synth = side(int(rng.integers(80, 160)), list("cdefgh"), constant=False)
    return real, synth, kinds


def assert_same_association(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got[~np.isnan(got)], want[~np.isnan(want)],
                               rtol=0, atol=1e-12)


# (columns, rows) of the tables compared: all of them, no numeric column, one,
# no categorical column, one or two rows
TABLE_SHAPES = [(None, None), ("stic", None), ("sx", None), ("xyz", None),
                (None, 1), (None, 2), ("xz", 2), ("ci", 1)]


@pytest.mark.parametrize("seed", range(6))
def test_associations_and_jensen_match_loop_reference(seed):
    real, synth, kinds = mixed_tables(seed)
    for table in (real, synth):
        for columns, rows in TABLE_SHAPES:
            part = {name: values[:rows] for name, values in table.items()
                    if columns is None or name in columns}
            assert_same_association(association_matrix(part, kinds),
                                    ref_association_matrix(part, kinds))
        for a in table:
            for b in table:
                if kinds[a] == kinds[b] == "categorical":
                    got = theils_u(table[a], table[b])
                    want = ref_theils_u(table[a], table[b])
                elif kinds[a] == "categorical" and kinds[b] == "numeric":
                    got = correlation_ratio(table[a], table[b])
                    want = ref_correlation_ratio(table[a], table[b])
                else:
                    continue
                assert np.isnan(got) == (want is None), (a, b)
                if want is not None:
                    assert abs(got - want) <= 1e-12, (a, b)
    np.testing.assert_allclose(correlation_diff(real, synth, kinds),
                               ref_correlation_diff(real, synth, kinds),
                               rtol=0, atol=1e-12)
    for name, kind in kinds.items():
        if kind == "categorical":
            np.testing.assert_allclose(jensen_shannon(real[name], synth[name]),
                                       ref_jensen_shannon(real[name], synth[name]),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_marginal_score_matches_dense_reference(seed, k):
    real, synth, kinds = mixed_tables(seed)
    bins = {"x": 6, "y": 4}
    got = marginal_score(real, synth, kinds, k=k, n_subsets=20, seed=seed,
                         bins=bins)["score"]
    want = ref_marginal_score(real, synth, kinds, k, 20, seed, bins)
    assert abs(got - want) <= 1e-9
    same = marginal_score(real, {c: list(v) for c, v in real.items()}, kinds,
                          k=k, n_subsets=20, seed=seed, bins=bins)
    assert same["score"] == 1000.0


def test_evaluate_matches_loop_reference():
    schema = parse_schema(NESTED_DOC)
    rng = np.random.default_rng(21)
    real_records, synth_records = make_users(rng, 90), make_users(rng, 110)
    report = evaluate(real_records, synth_records, schema, k=3, n_subsets=12)
    real = flatten_records(real_records, schema)
    synth = flatten_records(synth_records, schema)
    kinds = {"age": "numeric", "sex": "categorical", "tx/place": "categorical",
             "tx/price": "numeric"}
    bins = {"age": 4, "tx/price": 4}
    for level in ("record", "item"):
        np.testing.assert_allclose(
            report.correlation[level],
            ref_correlation_diff(real[level], synth[level], kinds),
            rtol=0, atol=1e-12)
    for name, table in (("sex", "record"), ("tx/place", "item")):
        np.testing.assert_allclose(
            [report.columns[name]["jensen_distance"],
             report.columns[name]["jensen_divergence"]],
            ref_jensen_shannon(real[table][name], synth[table][name]),
            rtol=0, atol=1e-12)
    want = ref_marginal_score(real["item"], synth["item"], kinds, 3, 12, 0, bins)
    assert abs(report.marginal["score"] - want) <= 1e-9


def test_marginal_score_at_any_cardinality():
    # 300 symbols in each of 8 columns: the dense joint would have 300**8
    # cells, past int64, while 300 rows observe at most 300 of them
    rng = np.random.default_rng(0)
    table = {f"c{i}": [f"v{j}" for j in rng.permutation(300)] for i in range(8)}
    kinds = {name: "categorical" for name in table}
    out = marginal_score(table, {c: list(v) for c, v in table.items()}, kinds,
                         k=8, n_subsets=1)
    assert out["score"] == 1000.0 and out["mean_tvd"] == 0.0
