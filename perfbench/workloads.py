"""Workload definitions: run configs generated from the benchmark seed.

Each workload is one closed-loop client issuing one synchronous command
sequence (an "op") at a time. The config of every op in a run is the
same, generated from ``--seed`` alone, so repeats of an op must produce
byte-identical outputs.

* ``toy-at``: ``ewas train`` then ``ewas eval`` on its checkpoint, with
  the shipped toy recipe (``configs/toy-at-ewas.json``) cut to 5
  epochs. Tiny tensors: Python dispatch and tape bookkeeping dominate.
* ``cifar-eval``: ``ewas eval`` of an untrained CIFAR-shaped
  ``resnet18_like`` checkpoint in float32. Parameters are frozen, so
  only forward and input-gradient kernels run.
* ``cifar-trades``: ``ewas train`` of the same architecture in float64
  with TRADES. Weight gradients, train-mode batch norm and SGD run.
"""

from __future__ import annotations

from dataclasses import dataclass

EPS_8_255 = 8.0 / 255.0
STEP_2_255 = 2.0 / 255.0


@dataclass(frozen=True)
class Workload:
    """A generated run config plus the commands one op issues."""

    name: str
    config: dict
    train: bool  # the op runs ``ewas train``
    eval: bool   # the op runs ``ewas eval``: of the op's own checkpoint
                 # after ``train``, else of one written once per run
    min_natural_acc: float | None = None

    @property
    def dtype(self) -> str:
        return self.config["model"]["dtype"]

    def train_samples(self) -> int:
        """Training samples per op, each counted once per epoch."""
        if not self.train:
            return 0
        d = self.config["data"]
        return d["num_classes"] * d["samples_per_class"] * self.config["train"]["epochs"]

    def eval_samples(self) -> int:
        """Test samples attacked per op, summed over presets."""
        if not self.eval:
            return 0
        d = self.config["data"]
        return d["num_classes"] * d["test_samples_per_class"] * len(self.config["attack_presets"])


def _toy_at(seed: int) -> Workload:
    config = {
        "seed": seed,
        "model": {"arch": "small_cnn", "width": 8, "input_shape": [1, 8, 8],
                  "num_classes": 3, "insertion_points": ["block4"],
                  "dtype": "float64"},
        "data": {"kind": "synthetic", "num_classes": 3, "samples_per_class": 200,
                 "test_samples_per_class": 100, "shape": [1, 8, 8],
                 "noise_std": 0.1, "seed": seed},
        "train": {"method": "at", "lambda": 0.01, "beta": 0.0, "epochs": 5,
                  "batch_size": 64, "lr": 0.1, "momentum": 0.9,
                  "weight_decay": 0.0002, "milestones": [], "lr_decay": 0.1,
                  "attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 5,
                             "random_start": True, "lambda_attack": 0.01}},
        "attack_presets": {
            "fgsm": {"epsilon": 0.1, "step_size": 0.1, "steps": 1},
            "pgd10": {"epsilon": 0.2, "step_size": 0.05, "steps": 10,
                      "random_start": True},
            "cw10": {"epsilon": 0.2, "step_size": 0.05, "steps": 10,
                     "loss_kind": "cw_margin"},
        },
    }
    # 0.95 is the acceptance gate's natural-accuracy floor for this recipe.
    return Workload("toy-at", config, train=True, eval=True, min_natural_acc=0.95)


def _cifar_config(seed: int, dtype: str, train_per_class: int,
                  test_per_class: int, train: dict) -> dict:
    # 3 samples per class gives one 30-sample batch: ten balanced classes
    # cannot make 32, and evaluate() batches by 128.
    return {
        "seed": seed,
        "model": {"arch": "resnet18_like", "width": 16, "input_shape": [3, 32, 32],
                  "num_classes": 10, "insertion_points": ["layer15"],
                  "dtype": dtype},
        "data": {"kind": "synthetic", "num_classes": 10,
                 "samples_per_class": train_per_class,
                 "test_samples_per_class": test_per_class, "shape": [3, 32, 32],
                 "noise_std": 0.1, "seed": seed},
        "train": train,
        "attack_presets": {
            "fgsm": {"epsilon": EPS_8_255, "step_size": EPS_8_255, "steps": 1},
            "pgd2": {"epsilon": EPS_8_255, "step_size": STEP_2_255, "steps": 2,
                     "random_start": True},
            "cw2": {"epsilon": EPS_8_255, "step_size": STEP_2_255, "steps": 2,
                    "loss_kind": "cw_margin"},
        },
    }


def _cifar_train(method: str, beta: float, epochs: int) -> dict:
    return {"method": method, "lambda": 0.01, "beta": beta, "epochs": epochs,
            "batch_size": 32, "lr": 0.1, "momentum": 0.9, "weight_decay": 0.0002,
            "milestones": [], "lr_decay": 0.1,
            "attack": {"epsilon": EPS_8_255, "step_size": STEP_2_255, "steps": 2,
                       "random_start": True, "lambda_attack": 0.01}}


def _cifar_eval(seed: int) -> Workload:
    # The checkpoint is written once per run by ``ewas train`` with 0
    # epochs, i.e. the seeded initialisation.
    config = _cifar_config(seed, "float32", 1, 3, _cifar_train("at", 0.0, 0))
    return Workload("cifar-eval", config, train=False, eval=True)


def _cifar_trades(seed: int) -> Workload:
    config = _cifar_config(seed, "float64", 3, 1, _cifar_train("trades", 6.0, 1))
    return Workload("cifar-trades", config, train=True, eval=False)


# Workload name -> function of the seed.
WORKLOADS = {"toy-at": _toy_at, "cifar-eval": _cifar_eval,
             "cifar-trades": _cifar_trades}
