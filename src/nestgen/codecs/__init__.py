from .base import (Codec, pass_losses, per_example_gradients, root_conditioning,
                   sample_rows, train_step)
from .composites import ListCodec, StructCodec
from .exact import enumerate_outcomes, joint_log_probs, joint_table
from .primitives import (DEFAULT_BINS, CategoricalCodec, NumericalCodec,
                         QuantileTable)

__all__ = [
    "Codec", "pass_losses", "per_example_gradients", "root_conditioning",
    "sample_rows", "train_step",
    "ListCodec", "StructCodec", "enumerate_outcomes", "joint_log_probs",
    "joint_table", "DEFAULT_BINS", "CategoricalCodec", "NumericalCodec",
    "QuantileTable",
]
