"""Desk-scale adversarial-robustness lab built around element-wise
activation scaling: a class-indexed linear classifier over an
intermediate activation whose weight columns double as per-element
scaling masks, trained jointly with the backbone and evaluated against
white-box l-infinity attacks."""

from .attacks import (
    AdversarialBatch,
    AttackConfig,
    cw_margin_loss,
    pgd,
    project_linf_box,
)
from .data import Dataset, batches, load_cifar_binary, synth_dataset
from .models import (
    ForwardOut,
    Model,
    ModelSection,
    insert_ewas,
    load_checkpoint,
    save_checkpoint,
)
from .scaling import ewas_forward
from .tensor import Tensor, backward, no_grad
from .training import (
    TrainConfig,
    evaluate,
    loss_terms,
    lr_schedule,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialBatch", "AttackConfig", "Dataset", "ForwardOut", "Model",
    "ModelSection", "Tensor", "TrainConfig", "backward", "batches",
    "cw_margin_loss", "evaluate", "ewas_forward", "insert_ewas",
    "load_cifar_binary", "load_checkpoint", "loss_terms", "lr_schedule",
    "no_grad", "pgd", "project_linf_box", "save_checkpoint", "synth_dataset",
    "train",
]
