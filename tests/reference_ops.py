"""Reference code that only the tests use.

`attention_block` is one attention block as 17 tape ops, built from the
general `matmul` and the masked `softmax`, with whatever mask its caller
builds: test_transformer.py checks the fused `autodiff.attention` against it
under the causal mask, and test_grouped_lists.py trains its padded list path
through it with each row's padding masked explicitly. The package fuses
these ops into `autodiff.attention` and `autodiff.categorical_nll`; their
finite-difference checks are in test_autodiff.py.

`ConcatKVCache` and `concat_step` are the sampling cache that
`transformer.KVCache` replaced, which concatenated every step's keys and
values onto all earlier ones: test_transformer.py steps both through the
same schedule and checks that their outputs are bitwise equal.

`filled_attention` is `autodiff.attention` as it computed its softmax
before: masked scores filled with MASK_FILL, the row max a reduce over the
whole last axis, exp over every score. test_transformer.py checks that the
op's output, gradients and per-example reads equal its bitwise.

`index_into_zeros` is `autodiff.index` as it was before its backward
added into the parent's gradient in place: each backward scatters g into a
zeros array of the parent's whole shape and adds that.

`unique_cells` is `metrics.count_cells` as joint cells were counted
before: one np.unique sort of the codes, whatever the grid's size.
test_metrics.py checks that the metrics give bitwise the same values with
it as with the dense count.

`Adam` and `dp_step` are the per-parameter optimizer step and DP step, one
tensor at a time with the noise drawn parameter by parameter: the flat
`optim.Adam` and `trainer.dp_step` must match them bitwise.
"""

import numpy as np

from nestgen import autodiff as ad
from nestgen.autodiff import Tensor
from nestgen.optim import BETA1, BETA2, EPS

# Most negative finite float64, the pre-softmax fill for masked scores:
# exp(MASK_FILL - rowmax) underflows to exactly 0.0, so masked positions get
# bitwise-zero weight and bitwise-zero gradient.
MASK_FILL = -np.finfo(np.float64).max


def matmul(a, b, transpose_b=False):
    """a @ b, or a @ b with b's last two axes swapped (transpose_b). b may
    be 2-D (a shared weight, with the per-example weight rule) or match a's
    leading dims."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    bd = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    out = Tensor(a.data @ bd)
    add_weight = ad._weight_rule() if bd.ndim == 2 else None

    def backward(g):
        a.accumulate(g @ np.swapaxes(bd, -1, -2))
        left, right = (g, a.data) if transpose_b else (a.data, g)
        if add_weight is None:
            b.accumulate(np.swapaxes(left, -1, -2) @ right)
        else:
            add_weight(b, left, right)

    return ad._record(out, backward)


def softmax(a, blocked=None):
    """Softmax over the last axis, stabilised by max subtraction. Entries
    where the boolean `blocked` (which broadcasts into a's shape) is True
    are filled with MASK_FILL first, so they get exactly zero weight and
    exactly zero gradient."""
    x = a.data if blocked is None else np.where(blocked, MASK_FILL, a.data)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        ga = s * (g - dot)
        a.accumulate(ga if blocked is None else np.where(blocked, 0.0, ga))

    return ad._record(out, backward)


def _transpose(a, axes):
    """Axis permutation as a tape op, for the reference block's head split
    and merge (the package has no transpose op)."""
    out = Tensor(a.data.transpose(axes))
    inv = tuple(np.argsort(axes))
    return ad._record(out, lambda g: a.accumulate(g.transpose(inv)))


def _heads(t, H, dh):
    B, L, d = t.data.shape
    return _transpose(ad.reshape(t, (B, L, H, dh)), (0, 2, 1, 3))


def attention_block(blk, x, heads, blocked, past=None):
    """One block with the weights `blk` on x (B, L, d) as 17 tape ops: three
    projections, the head splits, scaled scores masked where `blocked`
    (which broadcasts into their (B, heads, L, t+L) shape) is True, softmax,
    the weighted sum, the head merge, the output projection and the
    residual. past: constant (B, heads, t, dh) keys and values. Returns the
    output and all keys and values, as `autodiff.attention` does."""
    B, L, d = x.data.shape
    dh = d // heads
    q = _heads(matmul(x, blk["wq"]), heads, dh)
    k = _heads(matmul(x, blk["wk"]), heads, dh)
    v = _heads(matmul(x, blk["wv"]), heads, dh)
    if past is not None:
        k = ad.concat([past[0], k], axis=2)
        v = ad.concat([past[1], v], axis=2)
    scores = ad.mul_const(matmul(q, k, transpose_b=True), 1.0 / np.sqrt(dh))
    w = softmax(scores, blocked)
    ctx = ad.reshape(_transpose(matmul(w, v), (0, 2, 1, 3)), (B, L, d))
    y = matmul(ctx, blk["wo"])
    return ad.add(y, x), (k.data, v.data)


def head_major(buf, heads):
    """Position-major (t, B, d) cache slots as (B, heads, t, dh) keys or
    values, the layout `attention_block` takes and returns."""
    t, B, d = buf.shape
    return buf.reshape(t, B, heads, d // heads).transpose(1, 2, 0, 3)


def position_major(a):
    """(B, heads, L, dh) keys or values as (L, B, d) cache slots."""
    B, H, L, dh = a.shape
    return a.transpose(2, 0, 1, 3).reshape(L, B, H * dh)


class ConcatKVCache:
    """The sampling cache that `transformer.KVCache` replaced: per block,
    (B, heads, t, dh) keys and values onto which every step concatenates
    its own, and which `take` indexes by row."""

    def __init__(self, kv=None):
        self.kv = kv if kv is not None else []

    def take(self, rows):
        return ConcatKVCache([(k[rows], v[rows]) for k, v in self.kv])


def concat_step(stack, x_new, cache):
    """`AttentionStack.step` on a ConcatKVCache, with each block's forward
    computed as the fused op computed it before its cache buffers: the
    (B, d) output array at the next position."""
    B, d = x_new.shape
    x, kv = x_new.reshape(B, 1, d), []
    for i, blk in enumerate(stack.blocks):
        x, kv_i = _concat_block(blk, x, stack.cfg.heads, cache.kv[i] if cache.kv else None)
        kv.append(kv_i)
    cache.kv = kv
    return x.reshape(B, d)


def _concat_block(blk, x, heads, past):
    """One block's forward on one new position x (B, 1, d) after the
    (B, heads, t, dh) keys and values `past`: (output, all keys and values)."""
    B, _, d = x.shape
    dh = d // heads
    w_in = np.concatenate([blk["wq"].data, blk["wk"].data, blk["wv"].data], axis=1)
    x2 = x.reshape(B, d)
    q, k, v = (x2 @ w_in).reshape(B, 1, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    if past is not None:
        k, v = np.concatenate([past[0], k], axis=2), np.concatenate([past[1], v], axis=2)
    p = q @ np.swapaxes(k, -1, -2)
    p *= np.asarray(1.0 / np.sqrt(dh))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.empty((B, 1, heads, dh))
    np.matmul(p, v, out=ctx.transpose(0, 2, 1, 3))
    return (ctx.reshape(B, d) @ blk["wo"].data + x2).reshape(B, 1, d), (k, v)


def filled_attention(x, wq, wk, wv, wo, heads, past=None):
    """`autodiff.attention` with its softmax as first written: the masked
    scores filled with MASK_FILL, then max(axis=-1), exp and the row sum
    over all t + L keys; the same tape op and backward otherwise."""
    B, L, d = x.data.shape
    dh = d // heads
    c = np.asarray(1.0 / np.sqrt(dh))
    w_in = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    x2 = x.data.reshape(B * L, d)
    qkv = (x2 @ w_in).reshape(B, L, 3, heads, dh)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    if past is not None:
        k, v = (ad._cache_write(buf, qkv[:, :, j]) for j, buf in zip((1, 2), past))
    p = q @ np.swapaxes(k, -1, -2)
    p *= c
    if L > 1:
        t = k.shape[2] - L
        p = np.where(np.triu(np.ones((L, t + L), dtype=bool), t + 1), MASK_FILL, p)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.empty((B, L, heads, dh))
    np.matmul(p, v, out=ctx.transpose(0, 2, 1, 3))
    ctx = ctx.reshape(B * L, d)
    out = Tensor((ctx @ wo.data + x2).reshape(B, L, d))
    add_weight = ad._weight_rule()

    def backward(g):
        g = g.reshape(B * L, d)
        add_weight(wo, ctx, g)
        gctx = (g @ wo.data.T).reshape(B, L, heads, dh).transpose(0, 2, 1, 3)
        gs = gctx @ np.swapaxes(v, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        gqkv = np.empty((B, L, 3, heads, dh))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(gs, k, out=gq)
        np.matmul(np.swapaxes(gs, -1, -2)[:, :, -L:], q, out=gk)
        np.matmul(np.swapaxes(p, -1, -2)[:, :, -L:], gctx, out=gv)
        gqkv = gqkv.reshape(B * L, 3 * d)
        for i, w in enumerate((wq, wk, wv)):
            add_weight(w, x2, gqkv[:, i * d:(i + 1) * d])
        x.accumulate((g + gqkv @ w_in.T).reshape(B, L, d))

    return ad._record(out, backward)


def index_into_zeros(a, key, unique=False):
    """`autodiff.index`, with the backward a zeros array of a's shape that
    takes g at key (assigned, or summed with np.add.at where the key may
    repeat) and is then added into a's gradient."""
    out = Tensor(a.data[key])
    parts = key if isinstance(key, tuple) else (key,)
    assign = unique or all(isinstance(k, (slice, int, np.integer)) for k in parts)

    def backward(g):
        ga = np.zeros(a.data.shape)
        if assign:
            ga[key] = g
        else:
            np.add.at(ga, key, g)
        a.accumulate(ga)

    return ad._record(out, backward)


def unique_cells(cells, size):
    """(observed, inverse, counts) of integer codes in [0, size) by one sort."""
    return np.unique(cells, return_inverse=True, return_counts=True)


class Adam:
    """Adam over gradients by path, with per-path moments."""

    def __init__(self, lr):
        self.lr = lr
        self.step_count = 0
        self._m, self._v = {}, {}

    def step(self, store, grads):
        self.step_count += 1
        t = self.step_count
        for path, g in grads.items():
            m = self._m.get(path, np.zeros_like(g))
            v = self._v.get(path, np.zeros_like(g))
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            self._m[path], self._v[path] = m, v
            mhat = m / (1.0 - BETA1 ** t)
            vhat = v / (1.0 - BETA2 ** t)
            store[path].data -= self.lr * mhat / (np.sqrt(vhat) + EPS)


def clipped_sums(grads, c):
    """Each parameter's gradient of an `ad.ExampleGrads` summed over the
    examples, example i's scaled by c[i], one array per parameter."""
    out = []
    for p in grads.params:
        total = np.zeros(p.data.shape)
        for read in grads.reads[p]:
            a, g = read.a, read.g
            cr = c[read.owners, None, None]
            if a.ndim == 2:
                np.add.at(total, a.reshape(-1), (cr * g).reshape(-1, g.shape[-1]))
            else:
                total += (cr * a).reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        out.append(total)
    return out


def dp_step(grads, dp, rng):
    """The DP step one parameter at a time: one array per parameter, the
    noise drawn parameter by parameter."""
    norms = np.sqrt(grads.sq_norms())
    factors = np.minimum(1.0, dp.clip_norm / np.maximum(norms, 1e-300))
    std = dp.noise_multiplier * dp.clip_norm / grads.examples
    out = []
    for total in clipped_sums(grads, factors):
        total /= grads.examples
        if dp.noise_multiplier > 0:
            total += rng.normal(0.0, std, size=total.shape)
        out.append(total)
    return out
