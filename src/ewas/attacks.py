"""White-box l-infinity attacks: FGSM, PGD-k, and margin-loss (C&W style).

Every attack is one ``AttackConfig`` run by the one attack loop, ``pgd``:
signed-gradient ascent on an objective, projected after every step onto
the intersection of the epsilon-ball around the clean input and the
[0, 1] pixel box. ``pgd`` runs its own inference forward and objective
at every iterate. FGSM is the preset ``steps: 1, step_size: epsilon``
without a random start; the C&W attack is the preset
``loss_kind: "cw_margin"``, which ascends the negated margin.

When the model carries scaling modules, the objective can include their
classifier losses weighted by ``lambda_attack``; with ``lambda_attack``
equal to 0 the objective is the plain backbone loss, bit for bit.

Conventions: sign(0) = 0, so dead coordinates are never perturbed;
random starts draw each coordinate uniformly from [-epsilon, epsilon];
mask selection follows the deployed inference path unless
``mask_mode="training"`` is configured. A model's parameters and
batch-norm statistics are never mutated by an attack.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .scaling import MODES
from .tensor import (
    Tensor,
    backward,
    gather_labels,
    masked_rowmax,
    maximum_scalar,
    no_grad,
    softmax_cross_entropy,
    tmean,
)

LOSS_KINDS = ("cross_entropy", "cw_margin")


@dataclass
class AttackConfig:
    """Attack hyperparameters; ``name`` labels rows in evaluation output.

    Either ``loss_kind`` adds ``lambda_attack`` times the scaling modules'
    classifier loss to the backbone loss, and reduces to the backbone loss
    at lambda 0. In a run config ``seed`` defaults to the run seed and
    ``name`` to the preset's name, or ``"inner"`` for the training attack.
    """

    epsilon: float
    step_size: float
    steps: int = 1
    random_start: bool = False
    loss_kind: str = "cross_entropy"
    lambda_attack: float = 0.0
    kappa: float = 0.0
    mask_mode: str = "inference"
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if not self.epsilon >= 0:  # written so NaN fails too
            raise ConfigError(f"epsilon: must be >= 0, got {self.epsilon}")
        if not self.step_size > 0:
            raise ConfigError(f"step_size: must be > 0, got {self.step_size}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not self.lambda_attack >= 0:
            raise ConfigError(f"lambda_attack: must be >= 0, got {self.lambda_attack}")
        if not self.kappa >= 0:
            raise ConfigError(f"kappa: must be >= 0, got {self.kappa}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss_kind: must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if self.mask_mode not in MODES:
            raise ConfigError(f"mask_mode: must be one of {MODES}, got {self.mask_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not self.name:
            self.name = self.loss_kind


@dataclass
class AdversarialBatch:
    """Perturbed inputs plus per-sample attack outcome."""

    x_adv: np.ndarray
    success: np.ndarray  # True where the model now misclassifies
    loss: np.ndarray     # per-sample final objective value


def project_linf_box(x: np.ndarray, x0: np.ndarray, epsilon: float) -> np.ndarray:
    """Clamp into the epsilon-ball around x0, then into [0, 1]."""
    x = np.asarray(x)
    x0 = np.asarray(x0)
    if x.shape != x0.shape:
        raise ShapeError(f"project_linf_box: shapes {x.shape} and {x0.shape} differ")
    return np.clip(np.clip(x, x0 - epsilon, x0 + epsilon), 0.0, 1.0)


def cw_margin_loss(logits: Tensor, labels, kappa: float = 0.0,
                   reduction: str = "mean") -> Tensor:
    """max(Z_y - max_{k != y} Z_k, -kappa) per row; a NaN logit gives a NaN row.

    The attacker minimizes this margin (equivalently ascends its
    negation); kappa > 0 keeps pushing past the decision boundary.
    ``reduction="none"`` returns the (B,) per-row margins; the default
    returns their batch mean.
    """
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ConfigError(
            f"margin loss needs (B, K>=2) logits, got shape {logits.data.shape}"
        )
    if reduction not in ("mean", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    margin = gather_labels(logits, labels) - masked_rowmax(logits, labels)
    rows = maximum_scalar(margin, -kappa)
    return tmean(rows) if reduction == "mean" else rows


def require_modules(hosts, key: str, lam: float) -> None:
    """A positive ``lam`` needs a scaling module: if ``hosts`` (a model's
    ``ewas_modules`` or a spec's ``insertion_points``) is empty, ``key`` is named."""
    if lam > 0 and not hosts:
        raise ConfigError(f"{key}: {lam:g} > 0 requires a scaling module, but the "
                          f"model has none")


def loss_heads(out, lam: float) -> list[Tensor]:
    """Score tensors a loss is taken over: the backbone logits, then each
    scaling module's classifier scores in module order when lam > 0."""
    return [out.logits] + (out.alc_scores if lam > 0 else [])


def _objective(out, y, loss_kind: str, lambda_attack: float, kappa: float,
               reduction: str = "mean") -> Tensor:
    """loss(logits) + lambda * loss(scores) for each module, over one forward."""
    def head_loss(scores):
        if loss_kind == "cw_margin":
            return cw_margin_loss(scores, y, kappa, reduction)
        return softmax_cross_entropy(scores, y, reduction)

    backbone, *alcs = loss_heads(out, lambda_attack)
    loss = head_loss(backbone)
    for scores in alcs:
        loss = loss + lambda_attack * head_loss(scores)
    return loss


@contextmanager
def frozen_params(model):
    """Temporarily clear requires_grad on model parameters."""
    params = [t for _, t in model.parameters()]
    saved = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(params, saved):
            t.requires_grad = flag


def pgd(model, x, y, config: AttackConfig) -> AdversarialBatch:
    """Projected signed-gradient ascent inside the epsilon-ball.

    ``pgd`` runs its own inference forward (with ``config.mask_mode``) and
    objective at every iterate: the batch mean at each step's input, for
    the gradient, and the per-sample values at the final iterate, where
    success is scored. Inference-mode scaling masks are thus reselected
    as the input moves. Deterministic for fixed (model, x, y, config).
    """
    require_modules(model.ewas_modules, "lambda_attack", config.lambda_attack)
    y = np.asarray(y)  # the first objective checks it: non-integer labels raise IndexError
    dtype = model.dtype
    x0 = np.asarray(x, dtype=dtype)
    direction = -1.0 if config.loss_kind == "cw_margin" else 1.0

    def forward_and_objective(x_in, reduction):
        out = model.forward(x_in, labels=y, train=False, mask_mode=config.mask_mode)
        return out, _objective(out, y, config.loss_kind, config.lambda_attack,
                               config.kappa, reduction)

    x_adv = x0
    if config.random_start and config.epsilon > 0:
        rng = np.random.default_rng(config.seed)
        noise = rng.uniform(-config.epsilon, config.epsilon, size=x0.shape)
        x_adv = project_linf_box(x0 + noise.astype(dtype), x0, config.epsilon)
    with frozen_params(model):
        for _ in range(config.steps):
            xt = Tensor(x_adv, requires_grad=True)
            backward(forward_and_objective(xt, "mean")[1])
            step = direction * config.step_size * np.sign(xt.grad)
            x_adv = project_linf_box(x_adv + step, x0, config.epsilon)
    with no_grad():
        out, loss = forward_and_objective(x_adv, "none")
    return AdversarialBatch(x_adv, out.logits.data.argmax(axis=1) != y, loss.data)
