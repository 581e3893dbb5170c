"""Element-wise activation scaling via an auxiliary linear classifier.

An ALC maps a flattened intermediate activation (B, C*H*W) to K class
scores. Its weight matrix has one column per class; the column selected
for a sample (by ground-truth label during training, by score argmax at
inference) is reformatted back to (C, H, W) and multiplied elementwise
into the activation. Gradients reach the weights along two routes: the
classification scores and the scaling path.

An ``EwasModule`` is that weight plus the name of the host activation
it scales; the functions here take the weight tensor itself.

The flatten/reformat contract is numpy C order (channel-major, then row,
then column) and is shared bit-exactly with the tensor module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModeError, ShapeError
from .tensor import Tensor, matmul, mul, reshape, take_columns

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
        w = np.zeros(shape) if rng is None else rng.uniform(-bound, bound, size=shape)
        return cls(host, Tensor(w.astype(dtype), requires_grad=True, dtype=dtype))


def flatten_activation(z: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C*H*W) in C order; inverse of reformat_mask."""
    if z.data.ndim != 4:
        raise ShapeError(f"expected a (B, C, H, W) activation, got {z.data.shape}")
    b = z.data.shape[0]
    return reshape(z, (b, -1))


def alc_score(z: Tensor, weight: Tensor) -> Tensor:
    """Class scores: flatten(z) @ weight, shape (B, K)."""
    flat = flatten_activation(z)
    if flat.data.shape[1] != weight.data.shape[0]:
        c, h, w = z.data.shape[1:]
        raise ShapeError(
            f"activation {c}x{h}x{w} flattens to {flat.data.shape[1]}, "
            f"but the ALC expects {weight.data.shape[0]}"
        )
    return matmul(flat, weight)


def select_mask(weight: Tensor, scores: Tensor | None,
                labels: np.ndarray | None, mode: str,
                activation_shape: tuple[int, int, int]) -> Tensor:
    """Pick one weight column per sample and reformat it to (C, H, W).

    training mode uses the ground-truth label; inference mode uses the
    argmax of the scores, ties broken toward the lowest class index. The
    selected index is a constant of differentiation: gradients flow into
    the chosen column's values, never through the choice.
    """
    if mode not in MODES:
        raise ModeError(f"unknown selection mode {mode!r}; expected one of {MODES}")
    if mode == "training":
        if labels is None:
            raise ModeError("training-mode mask selection requires labels")
        idx = np.asarray(labels, dtype=np.int64)
    else:
        if scores is None:
            raise ModeError("inference-mode mask selection requires scores")
        idx = scores.data.argmax(axis=1)  # argmax takes the first maximum
    cols = take_columns(weight, idx)
    b = idx.shape[0]
    return reshape(cols, (b, *activation_shape))


def apply_scaling(z: Tensor, mask: Tensor) -> Tensor:
    """Elementwise z * mask; gradients reach both the activation and mask."""
    if z.data.shape != mask.data.shape:
        raise ShapeError(
            f"scaling mask shape {mask.data.shape} does not match "
            f"activation shape {z.data.shape}"
        )
    return mul(z, mask)


def ewas_forward(z: Tensor, weight: Tensor, labels: np.ndarray | None = None,
                 mode: str = "training") -> tuple[Tensor, Tensor]:
    """Score, select, scale. Returns (scaled activation, ALC scores).

    The ALC consumes the unscaled activation; only the scaled activation
    propagates onward.
    """
    scores = alc_score(z, weight)
    mask = select_mask(weight, scores, labels, mode, z.data.shape[1:])
    return apply_scaling(z, mask), scores
