"""Run-config reading: typed values, error paths, snapshot digests."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from ewas.attacks import AttackConfig
from ewas.cli import EXIT_USAGE, main
from ewas.config import load_run_config, parse_run_config
from ewas.data import synth_dataset
from ewas.errors import ConfigError
from ewas.models import ModelSection
from ewas.scaling import MODES
from ewas.training import TrainConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NAN = float("nan")


def toy_config() -> dict:
    return json.loads((CONFIGS / "toy-at-ewas.json").read_text())


# A file-backed data section; a config error is raised before any file is read.
CIFAR_DATA = {"kind": "cifar_binary", "train_files": ["data_batch_1.bin"],
              "test_files": ["test_batch.bin"]}


# (keys down to the value, the malformed value, the field path the error names)
MALFORMED = [
    (("train", "attack", "epsilon"), "abc", "train.attack.epsilon"),
    (("train", "attack", "epsilon"), None, "train.attack.epsilon"),
    (("train", "attack", "epsilon"), NAN, "train.attack.epsilon"),
    (("train", "attack", "epsilon"), -0.1, "train.attack.epsilon"),
    (("train", "attack", "random_start"), "false", "train.attack.random_start"),
    (("train", "attack", "steps"), 2.7, "train.attack.steps"),
    (("train", "lambda"), NAN, "train.lambda"),
    (("train", "beta"), NAN, "train.beta"),
    (("train", "milestones"), 3, "train.milestones"),
    (("train", "batch_size"), 1, "train.batch_size"),
    (("train",), [], "train"),
    (("model",), [], "model"),
    (("model", "input_shape"), 5, "model.input_shape"),
    (("model", "width"), "eight", "model.width"),
    (("analysis", "class_label"), "a", "analysis.class_label"),
    (("analysis", "layer"), "blockX", "analysis.layer"),
    (("data", "noise_std"), NAN, "data.noise_std"),
    (("data", "samples_per_class"), 1.5, "data.samples_per_class"),
    (("attack_presets", "fgsm", "steps"), True, "attack_presets.fgsm.steps"),
    (("attack_presets", "fgsm", "loss_kind"), "combined", "attack_presets.fgsm.loss_kind"),
    (("model", "width"), 0, "model.width"),
    (("model",), {"arch": "resnet18_like", "width": 2}, "model.width"),
    (("model", "input_shape"), [1, 0, 8], "model.input_shape"),
    (("model", "num_classes"), 1, "model.num_classes"),
    (("model", "insertion_points"), ["blockX"], "model.insertion_points"),
    (("data", "num_classes"), 1, "data.num_classes"),
    (("data",), {**CIFAR_DATA, "num_classes": 0}, "data.num_classes"),
    (("data",), {**CIFAR_DATA, "num_classes": -3}, "data.num_classes"),
    (("data",), {**CIFAR_DATA, "train_files": []}, "data.train_files"),
    (("data",), {**CIFAR_DATA, "test_files": []}, "data.test_files"),
    (("data", "kind"), "idx", "data.kind"),
    # these two fit no 3-class 8x8 data
    (("model", "input_shape"), [1, 16, 16], "model.input_shape"),
    (("model", "num_classes"), 4, "model.num_classes"),
    (("seed",), -3, "seed"),
    (("data", "seed"), -1, "data.seed"),
    (("train", "attack", "seed"), -2, "train.attack.seed"),
    (("attack_presets", "fgsm", "seed"), -1, "attack_presets.fgsm.seed"),
    (("data", "samples_per_class"), -1, "data.samples_per_class"),
    (("data", "test_samples_per_class"), -1, "data.test_samples_per_class"),
    (("data", "noise_std"), -0.1, "data.noise_std"),
    (("data", "samples_per_class"), 0, "data"),
    (("data", "shape"), [8, 8], "data.shape"),
    (("data", "shape"), [1, -8, 8], "data.shape"),
    (("train", "lr"), -0.1, "train.lr"),
    (("train", "lr"), 0, "train.lr"),
    (("train", "lr"), NAN, "train.lr"),
    (("train", "momentum"), -0.1, "train.momentum"),
    (("train", "momentum"), 1, "train.momentum"),
    (("train", "weight_decay"), -0.5, "train.weight_decay"),
    (("train", "lr_decay"), -1, "train.lr_decay"),
    (("train", "lr_decay"), 0, "train.lr_decay"),
    (("train", "attack", "kappa"), NAN, "train.attack.kappa"),
    (("attack_presets", "cw10", "kappa"), -1, "attack_presets.cw10.kappa"),
    # the config's own model has no module for its lambdas
    (("model", "insertion_points"), [], "train.lambda"),
]


@pytest.mark.parametrize("keys,value,field", MALFORMED,
                         ids=[f"{f}={v!r}" for _, v, f in MALFORMED])
def test_malformed_value_is_a_config_error_naming_its_field(keys, value, field,
                                                           tmp_path, capsys):
    raw = toy_config()
    section = raw
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: ")
    assert err[0].count(field) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("keys,key", [
    (("train", "lambda"), "train.lambda"),
    (("train", "attack", "lambda_attack"), "train.attack.lambda_attack"),
    (("attack_presets", "fgsm", "lambda_attack"), "attack_presets.fgsm.lambda_attack"),
])
def test_parse_checks_lambdas_against_its_own_model(keys, key):
    """From Python as from the command line, a positive lambda needs a module
    in the config's own model section."""
    raw = toy_config()
    raw["model"]["insertion_points"] = []
    raw["train"]["lambda"] = raw["train"]["attack"]["lambda_attack"] = 0.0
    parse_run_config(raw)
    section = raw
    for name in keys[:-1]:
        section = section[name]
    section[keys[-1]] = 0.5
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: 0.5 > 0 requires a "
                                          "scaling module"):
        parse_run_config(raw)


def test_negative_seed_override_names_the_flag():
    with pytest.raises(ConfigError, match=r"^--seed: must be >= 0, got -1$"):
        parse_run_config(toy_config(), seed_override=-1)


def test_load_split_checks_the_data_against_a_model():
    cfg = parse_run_config(toy_config())
    assert len(cfg.load_split("test", cfg.model)) == 300
    with pytest.raises(ConfigError, match=r"^model\.num_classes: the model has 4 classes, "
                                          r"the test data 3$"):
        cfg.load_split("test", replace(cfg.model, num_classes=4))


def test_train_split_with_a_last_batch_of_one_fails_before_output(tmp_path, capsys):
    """Train-mode batch norm needs 2 samples: 21 samples in batches of 10 leave one."""
    raw = toy_config()
    raw["data"]["samples_per_class"] = 7
    raw["train"]["batch_size"] = 10
    with pytest.raises(ConfigError, match=r"^train\.batch_size: 10 leaves the last of the 21 "):
        parse_run_config(raw).load_split("train", ModelSection(**raw["model"]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error: train.batch_size: ")
    assert not out.exists()


@pytest.mark.parametrize("name,digest", [
    ("toy-at-ewas", "6faf88e311fbac563fe12338552596866eed6fb1e93f88c5e8e0d454d8d200bb"),
    ("cifar10-at-ewas", "8cb4f2349c6513636e0b1ab460007ab8836387ad919b1a408891d45cc9c0373e"),
    ("svhn-at-ewas", "3bc10ad124446caf0f8577fedaf5133814f1724154e00a740351928fad350675"),
])
def test_shipped_config_digest_is_pinned(name, digest):
    assert load_run_config(CONFIGS / f"{name}.json").digest() == digest


@pytest.mark.parametrize("name", ["toy-at-ewas", "cifar10-at-ewas", "svhn-at-ewas"])
def test_snapshot_reads_back_to_itself(name):
    snapshot = load_run_config(CONFIGS / f"{name}.json").snapshot_json()
    assert parse_run_config(json.loads(snapshot)).snapshot_json() == snapshot


@pytest.mark.parametrize("data", [{**CIFAR_DATA, "num_classes": 3, "seed": 4}, CIFAR_DATA],
                         ids=["cifar_binary_seeded", "cifar_binary"])
def test_file_backed_snapshot_reads_back_to_itself(data):
    raw = toy_config()
    raw["data"] = data
    snapshot = parse_run_config(raw).snapshot_json()
    assert json.loads(snapshot)["data"].items() >= data.items()
    assert parse_run_config(json.loads(snapshot)).snapshot_json() == snapshot


@pytest.mark.parametrize("make,field", [
    (lambda: AttackConfig(epsilon=NAN, step_size=0.1), "epsilon"),
    (lambda: AttackConfig(epsilon=0.1, step_size=NAN), "step_size"),
    (lambda: AttackConfig(epsilon=0.1, step_size=0.1, lambda_attack=NAN), "lambda_attack"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), lam=NAN), "lambda"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), beta=NAN), "beta"),
    (lambda: AttackConfig(epsilon=0.1, step_size=0.1, kappa=NAN), "kappa"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), lr=NAN), "lr"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), momentum=NAN),
     "momentum"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), weight_decay=NAN),
     "weight_decay"),
    (lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), lr_decay=NAN),
     "lr_decay"),
], ids=["epsilon", "step_size", "lambda_attack", "lambda", "beta", "kappa", "lr",
        "momentum", "weight_decay", "lr_decay"])
def test_nan_through_the_python_api_is_a_config_error(make, field):
    """The JSON reader rejects NaN first; the dataclasses must reject it too."""
    with pytest.raises(ConfigError, match=f"^{field}: "):
        make()


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(epochs=1, attack=AttackConfig(0.1, 0.1), seed=-1),
    lambda: ModelSection().build(-1),
    lambda: synth_dataset(3, 2, (1, 8, 8), seed=-1),
], ids=["train_config", "build", "synth_dataset"])
def test_negative_seed_through_the_python_api_is_a_config_error(make):
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$"):
        make()


def test_mask_mode_takes_the_scaling_modes():
    for mode in MODES:
        assert AttackConfig(0.1, 0.1, mask_mode=mode).mask_mode == mode
    with pytest.raises(ConfigError, match="^mask_mode: "):
        AttackConfig(0.1, 0.1, mask_mode="bpda")
