"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tape records every primitive op executed while it is active (it is a context
manager). Ops are recorded in execution order, so walking the record backwards
visits each node exactly once in reverse topological order. Tensors created
while no tape is active behave as plain arrays, which is how sampling runs the
same forward code without paying for gradient bookkeeping.

Every read of part of a tensor (a slot, a slice, rows in a new order, one
position per row) is one op, `index`, whose key is any numpy key; one
attention block is one op, `attention`, and a leaf's scoring is one op,
`categorical_nll`, each with a hand-written backward. The module holds only
the ops that fitting or sampling runs.

`Tape(per_example=ExampleGrads(B, params))` computes per-example parameter
gradients for a batch of B examples in one backward pass. It relies on one
property of the training graph: no op mixes the rows of different examples,
so the gradient of every non-parameter tensor already splits by example.
Only the three ops that read a parameter, `attention`, `categorical_nll`
and `gather_rows`, need a per-example rule, and they share one,
`_weight_rule`: on such a tape it leaves `.grad` alone and records the read
in the `ExampleGrads` instead, its input rows a, output gradient rows g (an
index for `gather_rows`) and the example owning each row. Example i's
gradient of a (k, n) weight is then the sum of a_t^T g_t over its rows t in
every read, so its squared norm is the sum over t, s of (a_t . a_s)(g_t . g_s)
(the Gram form, used where it costs less than the dense gradient) and a
clipped sum over examples is one (c . a)^T g product per read; no
(B, n_params) array is built. `ExampleGrads.rows` holds the example of each
leading row of the ops running now, None at the root; a codec that runs
other rows (a list's elements, a length group) sets them with
`example_rows` while its ops run, and each rule captures them at forward
time.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import NamedTuple

import numpy as np

# Most negative finite float64. Used as the pre-softmax fill for masked
# attention scores: exp(MASK_FILL - rowmax) underflows to exactly 0.0, so
# masked positions get bitwise-zero attention weight and bitwise-zero gradient.
MASK_FILL = -np.finfo(np.float64).max

# Each thread (and asyncio task) sees its own active tape, so a tape open in
# one thread never records the ops another thread runs.
_ACTIVE_TAPE = contextvars.ContextVar("nestgen_active_tape", default=None)


class Tensor:
    """A float64 array plus a gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        # gradients are only ever replaced, never written in place, so g is
        # kept without a copy. A non-contiguous g is still copied to C order:
        # numpy sums a strided array in a different order, and later
        # reductions over it would round differently.
        if self.grad is None:
            self.grad = np.asarray(g, order="C")
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Execution-order record of ops, replayed backwards for gradients.

    per_example: when given, parameter-reading ops recorded on this tape
    record their reads in it and leave the parameter's `.grad` alone. The
    seed must then be a sum of per-example losses.
    """

    def __init__(self, per_example: ExampleGrads | None = None):
        self._ops = []
        self.per_example = per_example

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a tape is already active")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def record(self, out, backward):
        self._ops.append((out, backward))

    def backward(self, seed: Tensor):
        """Accumulate gradients of a scalar seed into every upstream tensor."""
        if seed.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {seed.data.shape}")
        seed.accumulate(np.ones_like(seed.data))
        for out, backward in reversed(self._ops):
            g = out.grad
            if g is None:
                continue
            backward(g)


def _record(out, backward):
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape.record(out, backward)
    return out


class Read(NamedTuple):
    """One op's read of a parameter on a per-example tape. Row t of the op
    belongs to example owners[t], at slots[t] of its run of adjacent rows
    (none longer than span), and adds a[t]^T g[t] to its gradient: a is
    (rows, r, k) and g (rows, r, n) for a (k, n) parameter, or a is the
    (rows, r) integer index of a row lookup, standing for its one-hot rows."""

    owners: np.ndarray
    slots: np.ndarray
    span: int
    a: np.ndarray
    g: np.ndarray


class ExampleGrads:
    """Per-example gradients of the given 2-D parameters for a batch of
    `examples` examples, kept as the reads that make them up (`reads`, by
    parameter) instead of summed per example. `rows` is the
    (owners, slots, span) layout of the leading rows of the ops running now
    (see `example_rows`), None at the root. `sq_norms` gives each example's
    squared gradient norm and `clipped_sums` the flat gradient sum with
    example i's scaled by c[i]; no (examples, n_params) array is ever built.
    Backward closures hold this object, not the tape, so a tape never
    references itself and is freed as soon as it goes out of scope."""

    def __init__(self, examples: int, params):
        self.examples = examples
        self.params = list(params)
        self.rows = None
        self._root = np.arange(examples), np.zeros(examples, dtype=np.int64), 1  # rows None
        self.reads = {p: [] for p in self.params}

    def add(self, param: Tensor, a: np.ndarray, g: np.ndarray, rows=None):
        """Record a read of param: a (rows, ..., k) and g (rows, ..., n), or
        an integer index a for a row lookup, whose leading rows have the
        layout `rows` (see `example_rows`), one row per example if None."""
        reads = self.reads.get(param)
        if reads is None:
            raise RuntimeError("a per-example gradient rule was applied to a "
                               "weight that is not a parameter")
        owners, slots, span = rows or self._root
        N = owners.size
        if N:  # an op on no rows (the elements of empty lists) reads nothing
            a = a.reshape(N, -1) if a.dtype.kind in "iu" else a.reshape(N, -1, a.shape[-1])
            reads.append(Read(owners, slots, span, a, g.reshape(N, -1, g.shape[-1])))

    def uses_gram(self, param: Tensor) -> bool:
        """Whether param's norms take the Gram form: the R rows an example
        gets over all reads (span * r each) make R (k + n) < k n. Per example
        the Gram form's two products then cost R^2 (k + n) against the dense
        form's R k n, and its (R, k) and (R, n) rows are smaller than the
        (k, n) gradient."""
        k, n = param.data.shape
        R = sum(read.span * read.a.shape[1] for read in self.reads[param])
        return R * (k + n) < k * n

    def gram_sq_norms(self, param: Tensor) -> np.ndarray:
        """(examples,) squared norms of param's gradients, sum over t, s of
        (a_t . a_s)(g_t . g_s) across every row an example reads. Each read
        fills (examples, span * r, *) rows, row t at its slot of example
        owners[t] (one-hot for a lookup) and zeros elsewhere."""
        k, n = param.data.shape
        reads = self.reads[param]
        R = sum(read.span * read.a.shape[1] for read in reads)
        A, G = np.zeros((self.examples, R, k)), np.zeros((self.examples, R, n))
        pos = 0
        for owners, slots, span, a, g in reads:
            r = a.shape[1]
            At = A[:, pos:pos + span * r].reshape(self.examples, span, r, k)
            if a.ndim == 2:
                At[owners[:, None], slots[:, None], np.arange(r), a] = 1.0
            else:
                At[owners, slots] = a
            G[:, pos:pos + span * r].reshape(self.examples, span, r, n)[owners, slots] = g
            pos += span * r
        gram = A @ np.swapaxes(A, 1, 2)
        gram *= G @ np.swapaxes(G, 1, 2)
        return gram.sum(axis=(1, 2))

    def dense(self, param: Tensor) -> np.ndarray:
        """(examples, *param.shape): each example's gradient of param. A
        read whose examples own several rows is spread into zero-padded
        (examples, span * r, *) blocks for its product."""
        out = np.zeros((self.examples,) + param.data.shape)
        for owners, slots, span, a, g in self.reads[param]:
            if a.ndim == 2:
                np.add.at(out, (np.repeat(owners, a.shape[1]), a.reshape(-1)),
                          g.reshape(-1, g.shape[-1]))
                continue
            if span > 1:
                blocks = [np.zeros((self.examples, span) + x.shape[1:]) for x in (a, g)]
                blocks[0][owners, slots], blocks[1][owners, slots] = a, g
                a, g = (b.reshape(self.examples, -1, b.shape[-1]) for b in blocks)
                owners = slice(None)
            out[owners] += np.swapaxes(a, 1, 2) @ g
        return out

    def sq_norms(self) -> np.ndarray:
        """(examples,) squared norm of each example's whole gradient, one
        parameter at a time, each in the Gram form or from its dense
        gradient as `uses_gram` picks from the shapes. The Gram form sums
        terms of both signs, so an example whose reads cancel can round below
        zero; totals are clamped at zero."""
        total = np.zeros(self.examples)
        for p in self.params:
            if self.uses_gram(p):
                total += self.gram_sq_norms(p)
            else:
                d = self.dense(p).reshape(self.examples, -1)
                total += np.einsum("ij,ij->i", d, d)
        return np.maximum(total, 0.0)

    def clipped_sums(self, c: np.ndarray) -> np.ndarray:
        """The gradient summed over the examples, example i's scaled by c[i],
        as one vector of the parameters in order: one (c . a)^T g product
        per read into its parameter's slice, with each row scaled by its
        owner's c, or a scatter of c . g for a row lookup."""
        sizes = [p.data.size for p in self.params]
        out = np.zeros(sum(sizes))
        for p, total in zip(self.params, np.split(out, np.cumsum(sizes)[:-1])):
            total = total.reshape(p.data.shape)
            for read in self.reads[p]:
                a, g = read.a, read.g
                cr = c[read.owners, None, None]
                if a.ndim == 2:
                    np.add.at(total, a.reshape(-1), (cr * g).reshape(-1, g.shape[-1]))
                else:
                    total += (cr * a).reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return out


def _per_example():
    """The active tape's ExampleGrads, or None."""
    tape = _ACTIVE_TAPE.get()
    return None if tape is None else tape.per_example


@contextlib.contextmanager
def example_rows(rows):
    """Run a block of ops whose leading row t is row rows[t] of the
    enclosing rows: non-decreasing, and repeated for a list's elements, so
    each example's rows stay adjacent. On a per-example tape the block's
    layout is computed here, once: each row's example outer[rows], its slot
    in its example's run and the longest run. Elsewhere this does nothing."""
    ex = _per_example()
    if ex is None:
        yield
        return
    outer = ex.rows
    owners = np.asarray(rows, dtype=np.int64)
    if outer is not None:
        owners = outer[0][owners]
    slots = np.arange(owners.size) - np.searchsorted(owners, owners)
    ex.rows = owners, slots, int(slots.max(initial=0)) + 1
    try:
        yield
    finally:
        ex.rows = outer


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return _record(out, backward)


def mul_const(a, c) -> Tensor:
    """Elementwise product with a constant scalar or array (no gradient
    into c), e.g. a loss times 1/passes. c must broadcast into a's shape,
    never widen it, so the gradient is g * c, and a zero in c kills the
    gradient at that position exactly."""
    c = np.asarray(c, dtype=np.float64)
    if np.broadcast_shapes(a.data.shape, c.shape) != a.data.shape:
        raise ValueError(f"mul_const constant {c.shape} widens {a.data.shape}")
    out = Tensor(a.data * c)

    def backward(g):
        a.accumulate(g * c)

    return _record(out, backward)


def _weight_rule():
    """The rule of a 2-D weight w read by an op being recorded: add(w, a, g)
    sends a^T g, for a (..., k) and g (..., n), into w's `.grad`, or on a
    per-example tape records the read with the row layout captured now. An
    integer a is a row lookup, standing for its one-hot (..., k) rows."""
    ex = _per_example()
    rows = None if ex is None else ex.rows

    def add(w, a, g):
        if ex is not None:
            ex.add(w, a, g, rows)
        elif a.dtype.kind in "iu":
            gw = np.zeros(w.data.shape)
            np.add.at(gw, a.reshape(-1), g.reshape(-1, g.shape[-1]))
            w.accumulate(gw)
        else:
            w.accumulate(a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return add


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape

    def backward(g):
        a.accumulate(g.reshape(orig))

    return _record(out, backward)


def concat(parts, axis):
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            p.accumulate(piece)

    return _record(out, backward)


def index(a, key, unique=False):
    """a.data[key] for any numpy key: slices and integers (an integer drops
    its axis), integer arrays to take or reorder rows, a tuple of arrays to
    gather per row. A basic key (slices and integers only) cannot repeat an
    entry, so its backward assigns g into zeros; an array key may, so its
    backward sums repeated entries with np.add.at, unless `unique` says it
    reads no entry twice (a permutation, a subset of rows) or repeats only
    a constant row, whose gradient is then dropped (a list's padded slots
    all read one zero row)."""
    out = Tensor(a.data[key])
    shape = a.data.shape
    parts = key if isinstance(key, tuple) else (key,)
    assign = unique or all(isinstance(k, (slice, int, np.integer)) for k in parts)

    def backward(g):
        ga = np.zeros(shape)
        if assign:
            ga[key] = g
        else:
            np.add.at(ga, key, g)
        a.accumulate(ga)

    return _record(out, backward)


def attention(x, wq, wk, wv, wo, heads, past=None):
    """x (B, L, d) plus the wo projection of its `heads`-head causal
    attention, with q, k and v from one x @ [wq|wk|wv] product and scores
    scaled by 1/sqrt(d / heads). past: constant (B, heads, t, dh) keys and
    values of t earlier positions. New position i attends keys 0..t+i only.
    That causal mask is the only one: a list's padding comes after its
    elements, so no position whose output is used attends it. Returns the
    output and all keys and values; the backward reuses the softmax."""
    B, L, d = x.data.shape
    dh = d // heads
    c = np.asarray(1.0 / np.sqrt(dh))
    w_in = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    # the four weight products run on (B*L, d) rows: one 2-D GEMM each
    x2 = x.data.reshape(B * L, d)
    q, k, v = (x2 @ w_in).reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    if past is not None:
        k, v = np.concatenate([past[0], k], axis=2), np.concatenate([past[1], v], axis=2)
    p = q @ np.swapaxes(k, -1, -2)
    p *= c
    if L > 1:
        t = k.shape[2] - L
        p = np.where(np.triu(np.ones((L, t + L), dtype=bool), t + 1), MASK_FILL, p)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    # products write straight into head-merged (B, L, d) layouts, no copy
    ctx = np.empty((B, L, heads, dh))
    np.matmul(p, v, out=ctx.transpose(0, 2, 1, 3))
    ctx = ctx.reshape(B * L, d)
    out = Tensor((ctx @ wo.data + x2).reshape(B, L, d))
    add_weight = _weight_rule()

    def backward(g):
        g = g.reshape(B * L, d)
        add_weight(wo, ctx, g)
        gctx = (g @ wo.data.T).reshape(B, L, heads, dh).transpose(0, 2, 1, 3)
        gs = gctx @ np.swapaxes(v, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        # laid out as x @ w_in; only the last L keys and values are x's
        gqkv = np.empty((B, L, 3, heads, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(gs, k, out=gq)
        np.matmul(np.swapaxes(gs, -1, -2)[:, :, -L:], q, out=gk)
        np.matmul(np.swapaxes(p, -1, -2)[:, :, -L:], gctx, out=gv)
        gqkv = gqkv.reshape(B * L, 3 * d)
        for i, w in enumerate((wq, wk, wv)):
            add_weight(w, x2, gqkv[:, i * d:(i + 1) * d])
        x.accumulate((g + gqkv @ w_in.T).reshape(B, L, d))

    return _record(out, backward), (k, v)


def categorical_nll(cond, w, codes):
    """Negative log softmax of the logits cond @ w^T at one code per row,
    shape (N,): the loss of a categorical leaf whose (K, d) table w both
    embeds and scores, given its (N, d) conditioning rows. The backward
    forms softmax minus one-hot, scaled by each row's incoming gradient,
    and sends it into cond through w and into w through the weight rule."""
    codes = np.asarray(codes)
    rows = np.arange(codes.shape[0])
    logits = cond.data @ w.data.T
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(lse[:, 0] - z[rows, codes])
    s = np.exp(z - lse)
    add_weight = _weight_rule()

    def backward(g):
        ga = s * g[:, None]
        ga[rows, codes] -= g
        cond.accumulate(ga @ w.data)
        add_weight(w, ga, cond.data)

    return _record(out, backward)


def gather_rows(w, idx):
    """Embedding lookup: rows of a 2-D table by integer index array."""
    idx = np.asarray(idx)
    out = Tensor(w.data[idx])
    add_weight = _weight_rule()

    def backward(g):
        add_weight(w, idx, g)

    return _record(out, backward)


def sum_axis(a, axis):
    out = Tensor(a.data.sum(axis=axis))
    n = a.data.shape[axis]

    def backward(g):
        a.accumulate(np.repeat(np.expand_dims(g, axis), n, axis=axis))

    return _record(out, backward)


def sum_all(a):
    out = Tensor(a.data.sum())
    shape = a.data.shape

    def backward(g):
        a.accumulate(np.broadcast_to(g, shape))

    return _record(out, backward)


def mean_all(a):
    return mul_const(sum_all(a), 1.0 / a.data.size)


def stack_columns(parts):
    """Stack a list of (B, d) tensors into (B, n, d)."""
    cols = [reshape(p, (p.data.shape[0], 1, p.data.shape[1])) for p in parts]
    return concat(cols, axis=1)
