"""Path-addressed parameter storage.

Every trainable tensor lives under a stable string path mirroring the schema
tree, e.g. ``user/transactions/price/W`` or ``user/~enc/b0/wq``. Segments
starting with ``~`` are reserved for machinery (schema names cannot contain
a tilde), so paths never collide with field names. After `pack`, the end of
`compile_schema`, each tensor's `data` is a view of its slice (`slices`) of
one float64 vector, `flat`, and the gradient `grad` has the same layout.
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
        self.flat = self.grad = None

    def allocate(self, path: str, shape, rng: np.random.Generator) -> Tensor:
        """Create a tensor at `path` initialised from normal(0, 0.02)."""
        if self.flat is not None:
            raise RuntimeError(f"cannot allocate {path}: the store is already packed")
        if path in self._tensors:
            raise ValueError(f"parameter path already allocated: {path}")
        t = Tensor(rng.normal(0.0, INIT_STD, size=shape))
        self._tensors[path] = t
        return t

    def pack(self):
        """Move the parameters into `flat`; each tensor's data becomes a view."""
        self.flat = np.concatenate([t.data.ravel() for t in self._tensors.values()])
        self.grad, self.slices, end = np.zeros_like(self.flat), {}, 0
        for path, t in self._tensors.items():
            self.slices[path] = slice(end, end := end + t.data.size)
            t.data = self.flat[self.slices[path]].reshape(t.data.shape)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each path's slice of a vector laid out as `flat`, in its shape."""
        return {p: vec[sl].reshape(self._tensors[p].data.shape) for p, sl in self.slices.items()}

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

    def gradients(self) -> np.ndarray:
        """`grad`, refilled from each tensor's `.grad` (zeros if None)."""
        for t, sl in zip(self._tensors.values(), self.slices.values()):
            self.grad[sl] = 0.0 if t.grad is None else t.grad.reshape(-1)
        return self.grad

    def load_state(self, state: dict[str, np.ndarray]):
        """Copy each path's finite float64 array into its parameter's view."""
        have, given = self._tensors.keys(), state.keys()
        if have != given:
            raise ValueError(f"parameter mismatch: missing {sorted(have - given)}, "
                             f"unexpected {sorted(given - have)}")
        for path, arr in state.items():
            t = self._tensors[path]
            if arr.dtype != np.float64 or t.data.shape != arr.shape:
                raise ValueError(f"parameter {path}: expected float64 {t.data.shape}, "
                                 f"got {arr.dtype} {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {path}: non-finite value")
            t.data[...] = arr
