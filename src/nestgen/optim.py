"""The Adam update over a packed ParamStore: the moments m and v are two
vectors laid out as `store.flat`, and a step is a few in-place operations
over the whole of it, each element computed in the textbook order."""

from __future__ import annotations

import numpy as np

from .params import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction, at BETA1, BETA2 and EPS."""

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._buffers = None  # m, v, two scratch vectors and a finiteness mask

    def step(self, store: ParamStore, grad: np.ndarray):
        """Update `store.flat` in place from the flat gradient `grad`."""
        if grad.shape != store.flat.shape:
            raise ValueError(f"gradient of shape {grad.shape} for {store.flat.size} parameters")
        if self._buffers is None:
            self._buffers = (*(np.zeros_like(grad) for _ in range(4)), np.empty(grad.shape, bool))
        m, v, a, b, finite = self._buffers
        if not np.isfinite(grad, out=finite).all():
            path = next(p for p, sl in store.slices.items() if not finite[sl].all())
            raise FloatingPointError(f"non-finite gradient for parameter {path}")
        t = self.step_count = self.step_count + 1
        m *= BETA1                          # m = BETA1 m + (1 - BETA1) g
        m += np.multiply(grad, 1.0 - BETA1, out=a)
        v *= BETA2                          # v = BETA2 v + ((1 - BETA2) g) g
        v += np.multiply(np.multiply(grad, 1.0 - BETA2, out=a), grad, out=a)
        np.divide(m, 1.0 - BETA1 ** t, out=a)   # (lr mhat) / (sqrt(vhat) + EPS)
        a *= self.lr
        np.sqrt(np.divide(v, 1.0 - BETA2 ** t, out=b), out=b)
        b += EPS
        a /= b
        store.flat -= a
