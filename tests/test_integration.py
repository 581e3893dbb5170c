"""Cross-module paths not covered by the per-module suites."""

import json

import numpy as np
import pytest

from ewas import attacks as A
from ewas import models as M
from ewas import training as TR
from ewas.config import load_run_config, parse_run_config
from ewas.data import synth_dataset
from ewas.errors import ConfigError


def test_attack_mask_mode_training_is_selectable():
    """The inner-attack mask mode flag switches the attacked path."""
    model = M.ModelSection(width=4).build(1)
    M.insert_ewas(model, "block4", seed=2)
    # make the two selection modes disagree: train a couple of steps first
    ds = synth_dataset(3, 16, (1, 8, 8), seed=3)
    cfg = TR.TrainConfig(
        method="at", lam=0.01, beta=0.0, epochs=2, batch_size=16, lr=0.1,
        attack=A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2,
                              random_start=False, lambda_attack=0.01),
        seed=4,
    )
    TR.train(model, ds, cfg)
    x = ds.images[:8]
    y = ds.labels[:8]
    base = dict(epsilon=0.15, step_size=0.05, steps=4, random_start=False,
                lambda_attack=0.5)
    adv_inf = A.pgd(model, x, y, A.AttackConfig(**base, mask_mode="inference"))
    adv_train = A.pgd(model, x, y, A.AttackConfig(**base, mask_mode="training"))
    assert adv_inf.x_adv.tobytes() != adv_train.x_adv.tobytes()


def test_float32_selectable_end_to_end():
    model = M.ModelSection(width=4, dtype="float32").build(5)
    M.insert_ewas(model, "block4", seed=6)
    assert all(t.data.dtype == np.float32 for _, t in model.parameters())
    ds = synth_dataset(3, 8, (1, 8, 8), seed=7)
    cfg = TR.TrainConfig(
        method="at", lam=0.01, beta=0.0, epochs=1, batch_size=8, lr=0.05,
        attack=A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2,
                              random_start=True, lambda_attack=0.01),
        seed=8,
    )
    _, log = TR.train(model, ds, cfg)
    assert np.isfinite(log[0].loss_total)
    assert all(t.data.dtype == np.float32 for _, t in model.parameters())


def test_resnet_with_module_trains_and_checkpoints(tmp_path):
    model = M.ModelSection(arch="resnet18_like", width=4).build(9)
    M.insert_ewas(model, "layer15", seed=10)
    ds = synth_dataset(3, 8, (1, 8, 8), seed=11)
    cfg = TR.TrainConfig(
        method="trades", lam=0.01, beta=6.0, epochs=1, batch_size=8, lr=0.01,
        attack=A.AttackConfig(epsilon=0.05, step_size=0.02, steps=2,
                              random_start=True, lambda_attack=0.01),
        seed=12,
    )
    TR.train(model, ds, cfg, out_dir=tmp_path)
    loaded = M.load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert loaded.arch == "resnet18_like"
    assert [m.host for m in loaded.ewas_modules] == ["layer15"]
    x = ds.images[:4]
    a = model.forward(x, mask_mode="inference").logits.data
    b = loaded.forward(x, mask_mode="inference").logits.data
    assert a.tobytes() == b.tobytes()


def test_config_cifar_kind(tmp_path):
    record = bytes([2]) + bytes(3072)
    (tmp_path / "cifar.bin").write_bytes(record * 3)
    raw = {"seed": 0,
           "data": {"kind": "cifar_binary",
                    "train_files": [str(tmp_path / "cifar.bin")],
                    "test_files": [str(tmp_path / "cifar.bin")]}}
    cfg = parse_run_config(raw)
    ds = cfg.data.load("test", 0)
    assert ds.images.shape == (3, 3, 32, 32)


def test_config_seed_override_flows_into_snapshot(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "seed": 1,
        "data": {"kind": "synthetic", "samples_per_class": 4},
    }))
    cfg = load_run_config(path, seed_override=9)
    assert cfg.seed == 9
    assert cfg.resolved()["seed"] == 9
    assert cfg.digest() != load_run_config(path).digest()


def test_config_rejects_non_object_root(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_run_config(path)
