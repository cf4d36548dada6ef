# A tour of the float64 reverse-mode engine and the reduced attention stack.
#
# Everything the models in this package do runs through nestgen.autodiff:
# a tape records every primitive op, backward() replays it in reverse, and
# all math stays in numpy float64. This script builds a few expressions by
# hand, checks one gradient against central finite differences, and then
# shows the causality property of the attention encoder numerically.

import numpy as np

from nestgen import autodiff as ad
from nestgen.autodiff import Tape, Tensor
from nestgen.params import ParamStore
from nestgen.transformer import AttentionStack, TransformerConfig

rng = np.random.default_rng(0)

# -- a scalar loss, differentiated by the tape --------------------------------

# a categorical leaf's table w (3 categories, width 4) scores rows x
w = Tensor(rng.normal(size=(3, 4)))
x = Tensor(rng.normal(size=(5, 4)))
target = rng.integers(0, 3, size=5)

with Tape() as tape:
    # one op: the negative log softmax of the logits x @ w^T at each row's
    # target, whose backward is softmax minus one-hot sent through w and x
    loss = ad.mean_all(ad.categorical_nll(x, w, target))
tape.backward(loss)

print("cross-entropy loss:", float(loss.data))
print("gradient shape for w:", w.grad.shape)

# central finite differences on one coordinate of w should agree to ~1e-9
i, j = 2, 1
step = 1e-6


def loss_at(v):
    prev = w.data[i, j]
    w.data[i, j] = v
    out = ad.categorical_nll(x, w, target).data.mean()
    w.data[i, j] = prev
    return out


fd = (loss_at(w.data[i, j] + step) - loss_at(w.data[i, j] - step)) / (2 * step)
print(f"autodiff grad {w.grad[i, j]:+.10f}  finite difference {fd:+.10f}")
assert abs(w.grad[i, j] - fd) < 1e-8

# -- the attention encoder only looks backward --------------------------------

# AttentionStack consumes a (batch, positions, width) sequence and digests
# each prefix. Position t may depend on positions <= t and nothing else.
store = ParamStore()
stack = AttentionStack(TransformerConfig(width=8, blocks=1, heads=2),
                       store, "demo", rng)
seq = rng.normal(size=(2, 5, 8))

out_a = stack(Tensor(seq)).data
bumped = seq.copy()
bumped[:, 3, :] += 10.0  # a large change at position 3
out_b = stack(Tensor(bumped)).data

same = np.array_equal(out_a[:, :3], out_b[:, :3])
moved = not np.allclose(out_a[:, 3:], out_b[:, 3:])
print("positions before the edit identical:", same)
print("positions from the edit onward moved:", moved)
assert same and moved

# The same holds for gradients: a loss that reads only position 1 sends
# exactly zero gradient into positions after 1.
x_seq = Tensor(seq)
with Tape() as tape:
    digests = stack(x_seq)
    probe = ad.sum_all(ad.index(digests, np.s_[:, 1]))
tape.backward(probe)
print("gradient into later positions:",
      float(np.abs(x_seq.grad[:, 2:]).max()), "(exactly zero)")
assert np.all(x_seq.grad[:, 2:] == 0.0)
