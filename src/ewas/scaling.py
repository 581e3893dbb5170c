"""Element-wise activation scaling via an auxiliary linear classifier.

An ALC maps a flattened intermediate activation (B, C*H*W) to K class
scores. Its weight matrix has one column per class; the column selected
for a sample (by ground-truth label during training, by score argmax at
inference) is reformatted back to (C, H, W) and multiplied elementwise
into the activation. Gradients reach the weights along two routes: the
classification scores and the scaling path.

An ``EwasModule`` is that weight plus the name of the host activation
it scales; ``ewas_forward``, the one EWAS step, takes the weight tensor
itself.

The flatten/reformat contract is numpy C order (channel-major, then row,
then column) and is shared bit-exactly with the tensor module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModeError
from .tensor import Tensor, matmul, reshape, take_columns

MODES = ("training", "inference")


@dataclass
class EwasModule:
    """One scaling module: the host activation it scales and its
    auxiliary-linear-classifier weight, shape (C*H*W, K); no bias.

    Column k doubles as the scaling mask for class k. Values are
    unconstrained: masks may be negative or exceed 1.
    """

    host: str
    weight: Tensor

    @classmethod
    def create(cls, host: str, flat_size: int, num_classes: int,
               rng: np.random.Generator | None, dtype=np.float64) -> "EwasModule":
        """Uniform fan-in initialization, bound +-1/sqrt(C*H*W); zeros without
        a generator, for a caller that overwrites them."""
        bound = 1.0 / np.sqrt(flat_size)
        shape = (flat_size, num_classes)
        w = np.zeros(shape, dtype) if rng is None else rng.uniform(-bound, bound, size=shape)
        return cls(host, Tensor(w, requires_grad=True, dtype=dtype))


def ewas_forward(z: Tensor, weight: Tensor, labels: np.ndarray | None = None,
                 mode: str = "training") -> tuple[Tensor, Tensor]:
    """Score, select, scale. Returns (scaled activation, ALC scores).

    The scores are flatten(z) @ weight, shape (B, K), of the unscaled
    activation. Each sample's mask is one weight column reformatted to
    (C, H, W): the label's in training mode, the score argmax (the lowest
    index on ties) in inference mode. The choice is a constant of
    differentiation: gradients reach z and the chosen columns, never the
    choice. An unknown mode, or training mode without labels, raises
    ``ModeError``; a weight without C*H*W rows or labels not (B,), ``ShapeError``.
    """
    if mode not in MODES:
        raise ModeError(f"unknown selection mode {mode!r}; expected one of {MODES}")
    if mode == "training" and labels is None:
        raise ModeError("training-mode mask selection requires labels")
    scores = matmul(reshape(z, (z.data.shape[0], -1)), weight)
    idx = labels if mode == "training" else scores.data.argmax(axis=1)  # the first maximum
    return take_columns(z, weight, idx), scores
