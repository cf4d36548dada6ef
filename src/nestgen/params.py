"""Path-addressed parameter storage.

Every trainable tensor lives under a stable string path mirroring the schema
tree, e.g. ``user/transactions/price/W`` or ``user/~enc/b0/wq``. Segments
starting with ``~`` are reserved for machinery (schema names cannot contain
a tilde), so paths never collide with field names.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

INIT_STD = 0.02


class ParamStore:
    """Parameter tensors by path, plus `store.c0`, the root's (width,)
    conditioning vector: None until `compile_schema` draws it, never saved."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.c0: np.ndarray | None = None

    def allocate(self, path: str, shape, rng: np.random.Generator) -> Tensor:
        """Create a tensor at `path` initialised from normal(0, 0.02)."""
        if path in self._tensors:
            raise ValueError(f"parameter path already allocated: {path}")
        t = Tensor(rng.normal(0.0, INIT_STD, size=shape))
        self._tensors[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._tensors[path]

    def paths(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def n_params(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient per path; parameters untouched by the loss get zeros."""
        out = {}
        for path, t in self._tensors.items():
            out[path] = np.zeros_like(t.data) if t.grad is None else t.grad
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {path: t.data.copy() for path, t in self._tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        missing = set(self._tensors) - set(state)
        extra = set(state) - set(self._tensors)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for path, arr in state.items():
            t = self._tensors[path]
            if t.data.shape != arr.shape:
                raise ValueError(f"shape mismatch at {path}: {t.data.shape} vs {arr.shape}")
            t.data = np.asarray(arr, dtype=np.float64).copy()
