"""The package's public names: each exported one resolves, and each job has one."""

import inspect

import pytest

import ewas
from ewas import attacks, config, data, errors, models, scaling, tensor, training


def test_every_exported_name_resolves():
    assert len(ewas.__all__) == len(set(ewas.__all__))
    namespace = {}
    exec("from ewas import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ewas.__all__)


@pytest.mark.parametrize("module,name", [
    (attacks, "fgsm"),  # the preset steps: 1, step_size: epsilon of ``pgd``
    (attacks, "cw_attack"),  # the preset loss_kind: "cw_margin" of ``pgd``
    (training, "at_loss_ewas"),  # loss_terms("at", ...)["total"]
    (training, "trades_loss_ewas"),
    (training, "mart_loss_ewas"),
    (training, "_loss_terms"),
    (training, "sgd_step"),  # SGD.step
    (models, "Conv2dLayer"),  # ConvBnLayer
    (models, "BatchNorm2dLayer"),
    (scaling, "AlcParams"),  # EwasModule.weight
    (training, "_require_ewas"),  # attacks.require_modules
    (training, "TrainLog"),  # train() returns its list of EpochRecord
    (config, "_DataOptions"),  # DataSection, the base of the data kinds
    (attacks, "_final_metrics"),  # pgd scores its final iterate inline
    (attacks, "attack_objective"),  # pgd runs the forward and ``_objective`` itself
    (data, "_read_exact"),  # Path.read_bytes
    (scaling, "flatten_activation"),  # ewas_forward, the one EWAS step
    (scaling, "alc_score"),
    (scaling, "select_mask"),
    (scaling, "apply_scaling"),
    (models.Model, "activation_shape"),  # Model.tap_shapes
    (data, "load_idx"),  # no data kind reads IDX files
    (config, "_IdxData"),
    (errors, "MagicNumberError"),
    (errors, "TruncatedFileError"),
    (tensor, "tsum"),  # the tests' own helper in _gradcheck
    (models, "_generator"),  # data.stream, the one seed rule
    (training, "_derived_seed"),
], ids=lambda v: getattr(v, "__name__", v))
def test_second_spellings_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(ewas, name)


def test_loss_core_takes_no_mode_argument():
    params = list(inspect.signature(training.loss_terms).parameters)
    assert params == ["method", "model", "x", "x_adv", "y", "lam", "beta"]
