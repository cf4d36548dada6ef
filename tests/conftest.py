"""Shared test helpers: finite-difference gradient checks, random schema and
batch generators, and a tiny loss wrapper used across the suite."""

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape
from nestgen.batches import LeafBatch, ListBatch, StructBatch
from nestgen.codecs.base import pass_losses, per_example_gradients, train_step
from nestgen.codecs.composites import ListCodec, StructCodec, length_groups
from nestgen.codecs.primitives import CategoricalCodec, NumericalCodec
from nestgen.trainer import dp_step


def fd_gradient(f, tensor, step=1e-5, coords=None):
    """Central finite differences of the scalar f() w.r.t. tensor.data.
    coords limits the check to a subset of flat indices (None = all)."""
    flat = tensor.data.ravel()
    idx = range(flat.size) if coords is None else coords
    grad = np.zeros(flat.size)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(tensor.data.shape)


def check_op_gradients(build, tensors, rng, rtol=1e-4, atol=1e-8, step=1e-5):
    """build() -> output Tensor computed from `tensors`. Checks the gradient
    of a fixed random weighted sum of the output against finite differences
    for every input tensor, every coordinate."""
    w = rng.standard_normal(build().data.shape)

    def scalar():
        return float((build().data * w).sum())

    for t in tensors:
        t.grad = None
    with Tape() as tape:
        out = build()
        loss = ad.sum_all(ad.mul_const(out, w))
    tape.backward(loss)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_gradient(scalar, t, step=step)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def example_blocks(grads):
    """[(B, *shape) gradient of each example] per parameter of an
    `ad.ExampleGrads`, built from its recorded reads one run at a time: the
    reference its norms and clipped sums are checked against."""
    blocks = []
    for p in grads.params:
        block = np.zeros((grads.examples,) + p.data.shape)
        for read in grads.reads[p]:
            for j, i in enumerate(read.owners):
                if read.a.ndim == 2:   # a row lookup: a holds row indices
                    np.add.at(block[i], read.a[j], read.g[j])
                else:
                    block[i] += read.a[j].T @ read.g[j]
        blocks.append(block)
    return blocks


def example_matrix(grads):
    """The (B, n_params) matrix of per-example gradients of an
    `ad.ExampleGrads`, row i flattened parameter by parameter."""
    return np.concatenate([b.reshape(grads.examples, -1) for b in example_blocks(grads)],
                          axis=1)


def rows_as_example_grads(rows):
    """An `ad.ExampleGrads` whose example i has gradient rows[i]: one (1, D)
    parameter read once per example, with a = 1 and g = rows[i]."""
    B, D = rows.shape
    grads = ad.ExampleGrads(B, [ad.Tensor(np.zeros((1, D)))])
    grads.add(grads.params[0], np.ones((B, 1)), rows)
    return grads


def dp_row(rows, dp, rng):
    """`dp_step` of rows_as_example_grads(rows): the (D,) clipped, noised
    mean of the rows, the flat vector of its one (1, D) parameter."""
    return dp_step(rows_as_example_grads(rows), dp, rng)


class ForcedOrder:
    """Stands in for the shuffle rng to force an order on shuffled nodes:
    `permutation(n)` returns sigma (a struct's field order) and
    `random((B, P))` returns keys whose per-row argsort is perm, a (B, P)
    array of permutations that keep padded slots in place (a list's order).
    With perm None and a generator `draws`, `random` draws from it."""

    def __init__(self, sigma=None, perm=None, draws=None):
        self.sigma = sigma
        self.perm = perm
        self.draws = draws

    def permutation(self, n):
        assert len(self.sigma) == n
        return np.asarray(self.sigma, dtype=np.int64)

    def random(self, shape):
        if self.perm is None:
            return self.draws.random(shape)
        perm = np.asarray(self.perm, dtype=np.int64)
        assert perm.shape == shape
        keys = np.empty(shape)
        ranks = np.broadcast_to(np.arange(shape[1]) / shape[1], shape)
        np.put_along_axis(keys, perm, ranks, axis=1)
        return keys


def forward_loss(codec, store, batch, rng=None, passes=1):
    """Scalar training loss outside any tape (for finite differencing)."""
    per_pass = pass_losses(codec, store, batch, rng=rng, passes=passes)
    total = per_pass[0]
    for extra in per_pass[1:]:
        total = ad.add(total, extra)
    return float(total.data.mean()) / passes


def loss_gradients(codec, store, batch, rng=None, passes=1):
    """(loss, grads-by-path) with the mean-over-batch convention. The
    arrays are copies, so a later backward pass leaves them alone."""
    store.zero_grads()
    with Tape() as tape:
        per_pass = pass_losses(codec, store, batch, rng=rng, passes=passes)
        total = per_pass[0]
        for extra in per_pass[1:]:
            total = ad.add(total, extra)
        loss = ad.mul_const(ad.mean_all(total), 1.0 / passes)
    tape.backward(loss)
    return float(loss.data), store.views(store.gradients().copy())


class RecordingRng:
    """Stands in for the shuffle rng: draws from a seeded generator and
    records each call as ("permutation", n) or ("random", shape)."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = []

    def permutation(self, n):
        self.calls.append(("permutation", n))
        return self.gen.permutation(n)

    def random(self, shape):
        self.calls.append(("random", tuple(shape)))
        return self.gen.random(shape)


def training_signal(codec, store, batch, rng=lambda: None):
    """One pass over batch under a fresh rng() each time: its per-example
    losses, `train_step`'s gradient, and the per-example squared gradient
    norms and clipped sums of `per_example_gradients`."""
    losses = pass_losses(codec, store, batch, rng=rng())[0].data
    grads = train_step(codec, store, batch, rng=rng())[1].copy()
    _, ex = per_example_gradients(codec, store, batch, rng=rng())
    c = np.linspace(0.5, 1.5, losses.shape[0])
    return losses, grads, ex.sq_norms(), ex.clipped_sums(c).copy()


class LeafSpy:
    """Wraps the `encode` of each leaf codec instance under `codec`, and the
    scorer it returns, and records, per leaf path, the logits
    cond.data @ W.data.T that the leaf scored and the per-example term it
    returned. Every leaf score is a call of such a scorer, so the spy sees
    all of them that come from encodes after it is built. Causality and
    masking tests compare these logits: each call checks, bitwise, that the
    term is the negative log softmax of them at the codes, so they are the
    distribution the leaf was decoded to. `score` runs one scoring pass of
    the whole tree, after which `logits` and `terms` are new dicts holding
    only that pass's records."""

    def __init__(self, codec):
        self.codec = codec
        self.logits, self.terms = {}, {}
        for leaf in codec.walk():
            if isinstance(leaf, CategoricalCodec):
                leaf.encode = self._wrap(leaf, leaf.encode)

    def _wrap(self, leaf, encode):
        def spied_encode(x, rng=None):
            emb, score = encode(x, rng=rng)
            codes = np.asarray(x.codes)

            def spied(cond):
                term = score(cond)
                logits = cond.data @ leaf.w.data.T
                z = logits - logits.max(axis=-1, keepdims=True)
                lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
                ref = -(z - lse)[np.arange(codes.shape[0]), codes]
                assert np.array_equal(term.data, ref), leaf.path
                self.logits[leaf.path] = logits
                self.terms[leaf.path] = term
                return term
            return emb, spied
        return spied_encode

    def score(self, cond, score):
        """score(cond) for a scorer `codec.encode` returned, recording a
        fresh pass."""
        self.logits, self.terms = {}, {}
        return score(cond)


def digest_spy(codec):
    """Wraps the encoder stack of the composite `codec` and returns the list
    each (B, L, d) digest tensor it computes is appended to: one per struct
    encode, one per length group of a list encode."""
    digests = []
    stack = codec.enc

    def spied(x):
        digests.append(stack(x))
        return digests[-1]

    codec.enc = spied
    return digests


def padded_grids(codec, garbage=None):
    """Wraps every list codec under `codec` and its encoder stack, and
    returns the list each grid of element embeddings a length group feeds
    its encoder is recorded in, as (list path, mask, grid): mask is
    (rows*P,), True where a grid slot holds an element, and grid is the
    (rows*P, d) tensor of the slots' embeddings, whose `grad` a backward
    pass fills. With a generator `garbage`, random values are first added
    at every padded slot (each holds the zero row), which stresses the
    masking invariants."""
    grids = []
    for lst in codec.walk():
        if isinstance(lst, ListCodec):
            _spy_grids(lst, grids, garbage)
    return grids


def _spy_grids(lst, grids, garbage):
    masks = []  # the masks of the groups of the current encode, in order
    encode, stack = lst.encode, lst.enc

    def list_spied(x, rng=None):
        lengths = np.asarray(x.lengths)
        masks[:] = [(np.arange(P) < lengths[rows][:, None]).ravel()
                    for rows, P in length_groups(lengths)]
        return encode(x, rng=rng)

    def enc_spied(x):
        mask = masks.pop(0)
        n, L, d = x.data.shape
        grid = ad.reshape(ad.index(x, np.s_[:, 1:]), (n * (L - 1), d))
        grids.append((lst.path, mask, grid))
        if garbage is not None:
            noise = np.where(mask[:, None], 0.0, garbage.normal(size=grid.data.shape))
            grid = ad.add(grid, noise)
        return stack(ad.concat([ad.index(x, np.s_[:, :1]),
                                ad.reshape(grid, (n, L - 1, d))], axis=1))

    lst.encode, lst.enc = list_spied, enc_spied


def random_batch(codec, n, rng, pick=None):
    """n random observations for the codec, laid out as ingest lays them
    out: a list holds its lengths and its elements end to end.
    pick(list_codec, n) gives a list's lengths; uniform on 0..max_len by
    default."""
    if isinstance(codec, CategoricalCodec):
        return LeafBatch(rng.integers(0, codec.cardinality, size=n))
    if isinstance(codec, StructCodec):
        return StructBatch({name: random_batch(c, n, rng, pick)
                            for name, c in zip(codec.names, codec.children())})
    if isinstance(codec, ListCodec):
        lengths = (rng.integers(0, codec.max_len + 1, size=n) if pick is None
                   else pick(codec, n)).astype(np.int64)
        return ListBatch(lengths, random_batch(codec.value_codec, int(lengths.sum()),
                                               rng, pick))
    raise TypeError(type(codec).__name__)


def assert_offsets(tree):
    """Every list node holds its rows' elements end to end: each leaf's
    codes and each list's lengths at its element level, through structs,
    are one row per element, lengths.sum() of them, with no capacity axis."""
    def level(t):
        if isinstance(t, StructBatch):
            return [a for sub in t.fields.values() for a in level(sub)]
        return [t.codes if isinstance(t, LeafBatch) else t.lengths]

    if isinstance(tree, StructBatch):
        for sub in tree.fields.values():
            assert_offsets(sub)
    elif isinstance(tree, ListBatch):
        count = int(tree.lengths.sum())
        assert all(a.shape == (count,) for a in level(tree.values))
        assert_offsets(tree.values)


def random_schema_doc(rng, max_depth=2, shuffle_ok=True):
    """Small random schema document: struct/list nesting with categorical
    and numeric leaves, for property suites."""
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def leaf():
        if rng.random() < 0.5:
            return {"type": "enum", "name": fresh("c"),
                    "cardinality": int(rng.integers(2, 5))}
        return {"type": "long", "name": fresh("n"),
                "bins": int(rng.integers(2, 5))}

    def node(depth):
        r = rng.random()
        if depth >= max_depth or r < 0.35:
            return leaf()
        if r < 0.7:
            n_fields = int(rng.integers(1, 4))
            return {"type": "record", "name": fresh("s"),
                    "fields": [{"name": fresh("f"), "type": node(depth + 1)}
                               for _ in range(n_fields)],
                    "shuffled": bool(shuffle_ok and rng.random() < 0.4)}
        return {"type": "array", "name": fresh("l"),
                "max_len": int(rng.integers(1, 4)),
                "items": node(depth + 1),
                "shuffled": bool(shuffle_ok and rng.random() < 0.4)}

    # root must be a record
    n_fields = int(rng.integers(1, 4))
    return {"type": "record", "name": "root",
            "fields": [{"name": fresh("f"), "type": node(1)}
                       for _ in range(n_fields)],
            "shuffled": bool(shuffle_ok and rng.random() < 0.4)}


def attach_tables(codec, rng):
    """Give every numerical codec in the tree a quantile table so sampling
    works (tests that never ingest real data need this)."""
    from nestgen.codecs.primitives import QuantileTable
    for node in codec.walk():
        if isinstance(node, NumericalCodec) and node.table is None:
            vals = rng.standard_normal(200)
            node.table = QuantileTable.fit(vals, node.cardinality)
    return codec


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
