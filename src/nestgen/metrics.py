"""Fidelity metrics between a real and a synthetic dataset.

Per-column distances (Wasserstein for numerics, Jensen-Shannon for
categoricals), the Frobenius norm of the difference between pairwise
association matrices, a k-way marginal score on a 0..1000 scale, and
rule-based per-entity consistency checks for nested data.

Tables here are plain dicts mapping column name to a list of values. Nested
records are flattened first (see data.flatten_records): record-level columns
keep one row per record, and when the schema has a list field every item
contributes a row that repeats its parent's scalar values.

Each column of a real/synthetic pair is coded once (code_tables), and the
metrics count codes with np.bincount. A joint count (a k-way marginal, a
categorical pair's Theil's U) goes through count_cells, which bincounts a
grid of at most DENSE_CELLS_PER_ROW cells per row and sorts a larger one, so
it works at any column cardinality with memory linear in the rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .codecs.primitives import DEFAULT_BINS, QuantileTable
from .data import DataError, flatten_records, list_chain, symbol_key
from .schema import Enum, Number, leaf_columns

log = logging.getLogger("nestgen.metrics")


class MetricsError(ValueError):
    pass


def _column(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise MetricsError(f"column {name!r} is empty")
    return arr


def wasserstein_1d(real, synth, normalized: bool = False,
                   name: str = "column") -> float:
    """1-D earth mover's distance. Equal-size columns reduce to the mean
    absolute difference of the sorted samples; unequal sizes integrate the
    CDF gap. Normalized mode rescales both columns by the real column's
    min/max first (a constant real column falls back to the raw distance)."""
    r = _column(real, name)
    s = _column(synth, name)
    if normalized:
        lo, hi = r.min(), r.max()
        span = hi - lo
        if span > 0:
            r = (r - lo) / span
            s = (s - lo) / span
    r = np.sort(r)
    s = np.sort(s)
    if r.size == s.size:
        return float(np.mean(np.abs(r - s)))
    grid = np.sort(np.concatenate([r, s]))
    widths = np.diff(grid)
    cdf_r = np.searchsorted(r, grid[:-1], side="right") / r.size
    cdf_s = np.searchsorted(s, grid[:-1], side="right") / s.size
    return float(np.sum(np.abs(cdf_r - cdf_s) * widths))


def _cat_codes(values, key=str) -> tuple[np.ndarray, int]:
    """(codes, n): each value's rank among the n sorted distinct keys,
    numbers by value before strings."""
    keys = list(map(key, values))
    ordered = sorted(set(keys), key=lambda k: (isinstance(k, str), k))
    rank = {k: r for r, k in enumerate(ordered)}
    return np.fromiter(map(rank.__getitem__, keys), np.int64, len(keys)), len(rank)


def _rows(real_table: dict, synth_table: dict) -> int:
    """The real table's row count; raises when either side has none."""
    n = [len(next(iter(table.values()), ())) for table in (real_table, synth_table)]
    for side, rows in zip(("real", "synthetic"), n):
        if not rows:
            raise MetricsError(f"the {side} table has no rows")
    return n[0]


def code_tables(real_table: dict, synth_table: dict, kinds: dict,
                bins: dict | None = None, keys: dict | None = None) -> dict:
    """Column name -> (codes, n) of a real/synthetic table pair, real rows
    first: a categorical value's index among the n sorted keys of both
    sides (`keys[name]`, str, makes each value's key), a numeric value's
    bin among n quantiles of the real rows (`bins[name]`, DEFAULT_BINS).
    The metrics below take it as `coded=`."""
    if sorted(synth_table) != sorted(real_table):
        raise MetricsError("real and synthetic tables have different columns")
    coded = {}
    for name, real in real_table.items():
        if kinds[name] == "numeric":
            both = np.concatenate([np.asarray(real, dtype=np.float64),
                                   np.asarray(synth_table[name], dtype=np.float64)])
            q = QuantileTable.fit(both[:len(real)], (bins or {}).get(name, DEFAULT_BINS))
            coded[name] = q.bin_values(both), q.n_bins
        else:
            coded[name] = _cat_codes([*real, *synth_table[name]],
                                     (keys or {}).get(name, str))
    return coded


def jensen_shannon(real, synth, name: str = "column", *,
                   coded: tuple | None = None) -> tuple[float, float]:
    """(distance, divergence) between the empirical category frequencies,
    natural log, over the union of observed symbols. The distance is the
    square root of the divergence. `coded`: the pair's code_tables entry."""
    if len(real) == 0 or len(synth) == 0:
        raise MetricsError(f"column {name!r} is empty")
    codes, n = coded or _cat_codes([*real, *synth])
    p = np.bincount(codes[:len(real)], minlength=n) / len(real)
    q = np.bincount(codes[len(real):], minlength=n) / len(synth)
    m = 0.5 * (p + q)
    div = 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
    div = max(0.0, float(div))
    return math.sqrt(div), div


def _kl(p, m):
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / m[nz])))


# A joint grid of at most this many cells per row is counted densely: one
# bincount over every cell of the grid. Measured against np.unique on random
# codes (numpy 2.4, one thread), the dense count takes 0.54x the sort's time
# at 4 cells per row over 900 rows and 0.92-0.97x over 10,500-30,000 rows,
# and 0.89-1.6x at 8 cells per row.
DENSE_CELLS_PER_ROW = 4


def count_cells(cells: np.ndarray, size: int):
    """(observed, inverse, counts) of integer codes in [0, size), exactly as
    np.unique(cells, return_inverse=True, return_counts=True) returns them:
    the observed codes in ascending order, each row's index among them, and
    each observed code's count. A grid of at most DENSE_CELLS_PER_ROW cells
    per row is counted with np.bincount; a larger one is sorted. Either way
    memory stays linear in the rows."""
    if size > DENSE_CELLS_PER_ROW * cells.size:
        return np.unique(cells, return_inverse=True, return_counts=True)
    counts = np.bincount(cells, minlength=size)
    observed = np.flatnonzero(counts)
    index = np.zeros(size, dtype=np.intp)
    index[observed] = np.arange(observed.size)
    return observed, index[cells], counts[observed]


def association_matrix(table: dict, kinds: dict, *,
                       coded: dict | None = None) -> np.ndarray:
    """Pairwise association matrix over the table's columns (order: sorted
    names). Numeric/numeric Pearson, categorical/categorical Theil's U in
    both orientations, mixed pairs the correlation ratio. Undefined entries
    (a constant column) are NaN; correlation_diff zeroes them out. `coded`:
    the table's (codes, n) per column, as code_tables makes them.

    Built in bulk: one corrcoef over the numeric columns, one grouped sum
    per categorical column against all of them, and one joint count per
    categorical pair (count_cells over the pair's grid) for Theil's U in
    both orientations."""
    coded = coded or code_tables(table, dict.fromkeys(table, ()), kinds)
    names = sorted(table)
    num = np.flatnonzero([kinds[name] == "numeric" for name in names])
    cat = [i for i, name in enumerate(names) if kinds[name] != "numeric"]
    rows = len(table[names[0]]) if names else 0
    x = np.array([table[names[i]] for i in num], dtype=np.float64).reshape(len(num), rows)
    mean = x.mean(axis=1, keepdims=True)
    total = np.sum((x - mean) ** 2, axis=1)
    live = x.std(axis=1) != 0  # the rows of x that are not constant
    mat = np.full((len(names), len(names)), np.nan)
    mat[np.ix_(num[live], num[live])] = np.corrcoef(x[live])
    counts, h = {}, {}
    for i in cat:
        g, n = coded[names[i]]
        counts[i] = np.bincount(g, minlength=n)
        seen = counts[i] > 0
        sums = np.bincount((g + n * np.arange(len(num))[:, None]).ravel(),
                           weights=x.ravel(), minlength=n * len(num))
        means = sums.reshape(len(num), n)[:, seen] / counts[i][seen]
        between = np.sum(counts[i][seen] * (means - mean) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mat[i, num] = mat[num, i] = np.where(total > 0, np.sqrt(np.maximum(
                0.0, between / total)), np.nan)
        px = counts[i][seen] / g.size
        h[i] = float(-np.sum(px * np.log(px)))
    for k, i in enumerate(cat):
        for j in cat[k + 1:]:
            # one joint count per pair serves both orientations: H(a|b) =
            # -sum p(a, b) log p(a | b), over the observed (a, b) cells
            (g, n), (y, ny) = coded[names[i]], coded[names[j]]
            cells, _, joint = count_cells(g * ny + y, n * ny)
            for a, b, given in ((i, j, counts[j][cells % ny]), (j, i, counts[i][cells // ny])):
                if h[a] > 0:
                    mat[a, b] = (h[a] + float(np.sum(joint / g.size * np.log(joint / given)))) / h[a]
    np.fill_diagonal(mat, 1.0)
    return mat


def correlation_diff(real_table: dict, synth_table: dict, kinds: dict, *,
                     coded: dict | None = None) -> float:
    """Frobenius norm of the difference between the two association
    matrices. A pair undefined in either dataset (constant column)
    contributes 0, with a warning naming the columns. `coded`: the pair's
    code_tables. A side with no rows is an error."""
    n_real = _rows(real_table, synth_table)
    coded = coded or code_tables(real_table, synth_table, kinds)
    names = sorted(real_table)
    a = association_matrix(real_table, kinds, coded={
        name: (codes[:n_real], n) for name, (codes, n) in coded.items()})
    b = association_matrix(synth_table, kinds, coded={
        name: (codes[n_real:], n) for name, (codes, n) in coded.items()})
    diff = a - b
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        for i, j in zip(*np.where(bad)):
            log.warning("association between %r and %r undefined (constant "
                        "column); pair contributes 0", names[i], names[j])
        diff[bad] = 0.0
    return float(np.linalg.norm(diff))


def marginal_score(real_table: dict, synth_table: dict, kinds: dict,
                   k: int = 4, n_subsets: int = 50, seed: int = 0,
                   bins: dict | None = None, *,
                   coded: dict | None = None) -> dict:
    """Mean total-variation distance over random k-column joint marginals,
    remapped to a 0..1000 score (1000 = identical marginals). Numeric
    columns are quantile-binned first, using the real column as reference.
    `coded`: the pair's code_tables. Each subset's cells are counted by
    count_cells over the mixed-radix grid, and only cells either side
    observes enter the distance (others add exactly 0), so any column
    cardinality works. k and n_subsets must be >= 1, and both sides must
    have rows."""
    if k < 1:
        raise MetricsError(f"marginal order k must be >= 1, got {k}")
    if n_subsets < 1:
        raise MetricsError(f"n_subsets must be >= 1, got {n_subsets}")
    n_real = _rows(real_table, synth_table)
    coded = coded or code_tables(real_table, synth_table, kinds, bins)
    names = sorted(real_table)
    if len(names) < k:
        raise MetricsError(f"need at least {k} columns for {k}-way marginals, "
                           f"have {len(names)}")
    rng = np.random.default_rng(seed)
    tvds = []
    for _ in range(n_subsets):
        cells, size = 0, 1  # mixed radix, first column most significant
        for i in rng.choice(len(names), size=k, replace=False):
            codes, n = coded[names[i]]
            if size * n > 2 ** 62:  # keep the cell codes in int64
                cells = np.unique(cells, return_inverse=True)[1]
                size = int(cells.max()) + 1
            cells, size = cells * n + codes, size * n
        observed, cells, _ = count_cells(cells, size)
        pr, ps = (np.bincount(side, minlength=observed.size) / side.size
                  for side in (cells[:n_real], cells[n_real:]))
        tvds.append(0.5 * float(np.abs(pr - ps).sum()))
    mean_tvd = float(np.mean(tvds))
    return {"score": 1000.0 * (1.0 - mean_tvd), "mean_tvd": mean_tvd,
            "k": k, "n_subsets": n_subsets, "seed": seed}


_RULE_KINDS = ("constant", "at-most-one-per-key", "monotone", "derived-constant")


def _rule_label(rule):
    kind = rule["kind"]
    arg = rule.get("field") or rule.get("key")
    if kind == "derived-constant":
        arg = f"{rule['key']}->{rule['field']}"
    return f"{kind}({arg})"


def _normalize_rules(rules):
    default_list = None
    if isinstance(rules, dict):
        default_list = rules.get("list")
        rules = rules.get("rules", [])
    if not isinstance(rules, list):
        raise MetricsError("consistency rules must be a list of objects, or an "
                           f"object whose \"rules\" is one; got {type(rules).__name__}")
    out = []
    for i, r in enumerate(rules):
        if not isinstance(r, dict):
            raise MetricsError(f"consistency rule {i}: expected an object, "
                               f"got {type(r).__name__}")
        kind = str(r.get("rule", r.get("type", ""))).replace("_", "-")
        if kind not in _RULE_KINDS:
            raise MetricsError(f"unknown consistency rule {kind!r}; expected "
                               f"one of {', '.join(_RULE_KINDS)}")
        rule = {"kind": kind, "list": r.get("list", default_list)}
        if kind in ("constant", "monotone"):
            if "field" not in r:
                raise MetricsError(f"rule {kind} needs a field")
            rule["field"] = r["field"]
        elif kind == "at-most-one-per-key":
            if "key" not in r:
                raise MetricsError(f"rule {kind} needs a key")
            rule["key"] = r["key"]
        else:
            if "key" not in r or "field" not in r:
                raise MetricsError("rule derived-constant needs key and field")
            rule["key"] = r["key"]
            rule["field"] = r["field"]
        for name, value in rule.items():
            if value is not None and not isinstance(value, str):
                raise MetricsError(f"consistency rule {i}: {name} must be a "
                                   f"string, got {type(value).__name__}")
        out.append(rule)
    return out


def _ordered(values):
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return [str(v) for v in values]


def _entity_ok(items, rule):
    def col(field):
        out = []
        for it in items:
            if field not in it:
                raise MetricsError(f"consistency rule references missing "
                                   f"field {field!r}")
            out.append(it[field])
        return out

    kind = rule["kind"]
    if kind == "constant":
        vals = col(rule["field"])
        return len(set(map(str, vals))) <= 1
    if kind == "at-most-one-per-key":
        keys = list(map(str, col(rule["key"])))
        return len(set(keys)) == len(keys)
    if kind == "monotone":
        vals = _ordered(col(rule["field"]))
        return all(a <= b for a, b in zip(vals, vals[1:]))
    # derived-constant: within the entity, equal keys must carry equal values
    seen = {}
    for key, val in zip(col(rule["key"]), col(rule["field"])):
        v = str(val)
        if seen.setdefault(str(key), v) != v:
            return False
    return True


def consistency_check(records, rules, list_field: str | None = None) -> dict:
    """Per-entity rule checks over nested records. Returns the fraction of
    entities without a violation, per rule label, plus "overall": the
    fraction of entities violating no rule at all. Entities with zero or one
    list item cannot violate anything."""
    rules = _normalize_rules(rules)
    if not rules:
        raise MetricsError("no consistency rules given")
    if not records:
        raise MetricsError("no records to check")
    fractions = {}
    clean = np.ones(len(records), dtype=bool)
    for rule in rules:
        lf = rule["list"] or list_field
        if lf is None:
            lists = [k for k, v in records[0].items() if isinstance(v, list)]
            if len(lists) != 1:
                raise MetricsError("cannot infer the list field; set it in "
                                   "the rules file")
            lf = lists[0]
        ok = np.empty(len(records), dtype=bool)
        for i, rec in enumerate(records):
            if lf not in rec or not isinstance(rec[lf], list):
                raise MetricsError(f"record {i}: missing list field {lf!r}")
            if not all(isinstance(item, dict) for item in rec[lf]):
                raise MetricsError(f"record {i}: list field {lf!r} holds items "
                                   "that are not objects, which rules cannot check")
            ok[i] = _entity_ok(rec[lf], rule)
        clean &= ok
        fractions[_rule_label(rule)] = float(ok.mean())
    fractions["overall"] = float(clean.mean())
    return fractions


@dataclass
class MetricsReport:
    columns: dict
    correlation: dict
    marginal: dict
    consistency: dict | None
    splits: dict
    rows: dict

    def to_json(self) -> dict:
        return {"rows": self.rows, "columns": self.columns,
                "correlation": self.correlation, "marginal": self.marginal,
                "consistency": self.consistency, "splits": self.splits}

    def to_text(self) -> str:
        lines = []
        lines.append(f"rows: real={self.rows['real']} "
                     f"synthetic={self.rows['synth']}")
        lines.append("")
        lines.append(f"{'column':<32} {'metric':<12} {'raw':>10} {'extra':>10}")
        for name in sorted(self.columns):
            m = self.columns[name]
            if m["kind"] == "numeric":
                lines.append(f"{name:<32} {'wasserstein':<12} "
                             f"{m['wasserstein']:>10.5f} "
                             f"{m['wasserstein_normalized']:>10.5f}")
            else:
                lines.append(f"{name:<32} {'jensen':<12} "
                             f"{m['jensen_distance']:>10.5f} "
                             f"{m['jensen_divergence']:>10.5f}")
        lines.append("")
        for level, value in self.correlation.items():
            lines.append(f"correlation difference ({level}): {value:.5f}")
        lines.append(f"marginal score (k={self.marginal['k']}, "
                     f"{self.marginal['n_subsets']} subsets): "
                     f"{self.marginal['score']:.1f} / 1000 "
                     f"(mean TVD {self.marginal['mean_tvd']:.4f})")
        if self.consistency is not None:
            lines.append("")
            lines.append("consistency (fraction of clean entities, synthetic):")
            for label, frac in self.consistency["synth"].items():
                lines.append(f"  {label:<40} {frac:.3f}")
        return "\n".join(lines) + "\n"


def _kinds_and_bins(schema):
    """(kinds, bins, keys): each leaf column's kind, each numeric column's
    bin count, and the key each categorical column's values match by, as
    ingest matches them (data.symbol_key)."""
    kinds, bins, keys = {}, {}, {}
    for name, node in leaf_columns(schema):
        if isinstance(node, Number):
            kinds[name] = "numeric"
            bins[name] = node.bins or DEFAULT_BINS
        elif isinstance(node, Enum):
            kinds[name] = "categorical"
            keys[name] = symbol_key(node.symbols)
    return kinds, bins, keys


def evaluate(real_records, synth_records, schema, k: int = 4,
             n_subsets: int = 50, seed: int = 0, rules=None) -> MetricsReport:
    """Full fidelity report between two record sets under one schema. A
    DataError from flattening a set, and a MetricsError for a set with no
    rows at a level, name it in `dataset`: 0 real, 1 synthetic; an error
    from the schema's list chain names neither."""
    list_chain(schema)
    kinds, bins, keys = _kinds_and_bins(schema)
    flat = []
    for records in (real_records, synth_records):
        try:
            flat.append(flatten_records(records, schema))
        except DataError as e:
            e.dataset = len(flat)
            raise
    real, synth = flat
    rows = {"real": len(real_records), "synth": len(synth_records),
            "real_items": real["item_count"], "synth_items": synth["item_count"]}

    coded, columns = {}, {}
    for origin in ("record", "item"):
        r_tab, s_tab = real[origin], synth[origin]
        if r_tab is None:
            continue
        for dataset, (side, key) in enumerate((("real", "real"), ("synthetic", "synth"))):
            if not rows[key if origin == "record" else f"{key}_items"]:
                err = MetricsError(f"the {side} dataset has no {origin} rows")
                err.dataset = dataset
                raise err
        coded[origin] = code_tables(r_tab, s_tab, kinds, bins, keys)
        for name in sorted(r_tab):
            if origin == "item" and name in real["record"]:
                continue
            if kinds.get(name) == "numeric":
                columns[name] = {
                    "kind": "numeric",
                    "wasserstein": wasserstein_1d(r_tab[name], s_tab[name],
                                                  name=name),
                    "wasserstein_normalized": wasserstein_1d(
                        r_tab[name], s_tab[name], normalized=True, name=name),
                }
            else:
                dist, div = jensen_shannon(r_tab[name], s_tab[name], name=name,
                                           coded=coded[origin][name])
                columns[name] = {"kind": "categorical",
                                 "jensen_distance": dist,
                                 "jensen_divergence": div}

    # both sides have rows at every level (checked above)
    correlation = {origin: correlation_diff(real[origin], synth[origin], kinds, coded=codes)
                   for origin, codes in coded.items() if len(real[origin]) >= 2}

    wide = "record" if real["item"] is None else "item"
    marginal = marginal_score(real[wide], synth[wide], kinds, k=k,
                              n_subsets=n_subsets, seed=seed, coded=coded[wide])

    consistency = None
    if rules:
        consistency = {"real": consistency_check(real_records, rules),
                       "synth": consistency_check(synth_records, rules)}

    n_real = len(real_records)
    split_rng = np.random.default_rng(seed)
    order = split_rng.permutation(n_real)
    cut = int(round(0.8 * n_real))
    splits = {"seed": seed, "train_fraction": 0.8,
              "train": [int(i) for i in order[:cut]],
              "test": [int(i) for i in order[cut:]],
              "note": "row indices into the real dataset for external "
                      "model-utility harnesses"}

    return MetricsReport(columns=columns, correlation=correlation,
                         marginal=marginal, consistency=consistency,
                         splits=splits, rows=rows)
