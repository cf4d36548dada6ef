"""Tape ops that only the tests use: the general `matmul` and the masked
`softmax` that the 17-op reference attention block in test_transformer.py
is built from. The package fuses both into `autodiff.attention` and
`autodiff.categorical_nll`; their finite-difference checks are in
test_autodiff.py."""

import numpy as np

from nestgen import autodiff as ad
from nestgen.autodiff import MASK_FILL, Tensor


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
