"""What the tape reaches: only leaf tensors, and no reference cycle."""

import gc

import numpy as np
import pytest

from ewas import models as M
from ewas import tensor as T
from ewas import training as TR
from ewas.attacks import AttackConfig, _objective, frozen_params, pgd

from _tape import tape

SPEC = M.ModelSection(arch="resnet18_like", width=4, input_shape=(3, 8, 8), num_classes=3,
                      insertion_points=("layer4",))


def inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (6, *SPEC.input_shape))
    x_adv = np.clip(x + rng.uniform(-0.03, 0.03, x.shape), 0, 1)
    return x, x_adv, np.arange(6) % SPEC.num_classes


def training_loss(method):
    def make():
        model = SPEC.build(1)
        return TR.loss_terms(method, model, *inputs(2), 0.5, 6.0)["total"], model
    return make


def attack_loss():
    model = SPEC.build(3)
    x, _, y = inputs(4)
    with frozen_params(model):
        out = model.forward(T.Tensor(x, requires_grad=True), labels=y, train=False,
                            mask_mode="inference")
        return _objective(out, y, "cross_entropy", 1.0, 0.0), model


@pytest.mark.parametrize("make", [training_loss("at"), training_loss("trades"),
                                  training_loss("mart"), attack_loss],
                         ids=["at", "trades", "mart", "frozen_attack"])
def test_the_only_tensors_a_tape_reaches_are_leaves(make):
    """Op results are reached through their entries, never as tensors: the
    parameters and the input are, by their entries and the closures' cells."""
    loss, model = make()
    held = tape(loss)
    assert held.tensors and all(t._node is None for t in held.tensors)
    params = {id(p) for _, p in model.parameters()}
    assert {id(t) for t in held.entries if isinstance(t, T.Tensor)} & params


@pytest.mark.parametrize("method", ["at", "trades", "mart"])
def test_pgd_and_a_training_step_leave_no_reference_cycle(method):
    """With the collector off, every tape object is freed by its last reference:
    a cycle would keep each attack input alive until a full collection."""
    model = SPEC.build(5)
    x, _, y = inputs(6)
    cfg = AttackConfig(epsilon=0.1, step_size=0.05, steps=2, random_start=True)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.disable()
    try:
        adv = pgd(model, x, y, cfg)
        T.backward(TR.loss_terms(method, model, x, adv.x_adv, y, 0.5, 6.0)["total"])
        del adv
        gc.collect()
        leaked = [obj for obj in gc.garbage
                  if getattr(type(obj), "__module__", None) == T.__name__
                  or getattr(obj, "__module__", None) == T.__name__]
    finally:
        gc.enable()
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
