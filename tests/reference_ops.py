"""Reference code that only the tests use.

The general `matmul` and the masked `softmax` are the tape ops the 17-op
reference attention block in test_transformer.py is built from. The package
fuses both into `autodiff.attention` and `autodiff.categorical_nll`; their
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
        for owners, _, a, g in grads.reads[p]:
            cr = c[owners, None, None]
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
