"""The Adam update over a ParamStore."""

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
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, store: ParamStore, grads: dict[str, np.ndarray]):
        self.step_count += 1
        t = self.step_count
        for path, g in grads.items():
            _check_grad(path, g, store[path].data.shape)
            m = self._m.get(path)
            if m is None:
                m = np.zeros_like(g)
                self._v[path] = np.zeros_like(g)
            v = self._v[path]
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            self._m[path] = m
            self._v[path] = v
            mhat = m / (1.0 - BETA1 ** t)
            vhat = v / (1.0 - BETA2 ** t)
            store[path].data -= self.lr * mhat / (np.sqrt(vhat) + EPS)


def _check_grad(path: str, g: np.ndarray, shape: tuple):
    if g.shape != shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match parameter {path} of shape {shape}")
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite gradient for parameter {path}")

