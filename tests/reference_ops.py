"""Reference code that only the tests use.

`attention_block` is one attention block as 17 tape ops, built from the
general `matmul` and the masked `softmax`, with whatever mask its caller
builds: test_transformer.py checks the fused `autodiff.attention` against it
under the causal mask, and test_grouped_lists.py trains its padded list path
through it with each row's padding masked explicitly. The package fuses
these ops into `autodiff.attention` and `autodiff.categorical_nll`; their
finite-difference checks are in test_autodiff.py.

`Adam` and `dp_step` are the per-parameter optimizer step and DP step, one
tensor at a time with the noise drawn parameter by parameter: the flat
`optim.Adam` and `trainer.dp_step` must match them bitwise.
"""

import numpy as np

from nestgen import autodiff as ad
from nestgen.autodiff import MASK_FILL, Tensor
from nestgen.optim import BETA1, BETA2, EPS


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
