"""Command-line behavior: artifacts, exit codes, config validation."""

import ctypes
import ctypes.util
import json

import numpy as np
import pytest

from ewas import attacks, cli
from ewas.cli import EXIT_ABORT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from ewas.models import ModelSection, load_checkpoint, save_checkpoint
from ewas.tensor import backward

from _rows import read_rows


def write_config(path, **overrides):
    cfg = {
        "seed": 3,
        "output_dir": str(path.parent / "out"),
        "model": {
            "arch": "small_cnn", "width": 2, "input_shape": [1, 8, 8],
            "num_classes": 3, "insertion_points": ["block4"], "dtype": "float64",
        },
        "data": {
            "kind": "synthetic", "num_classes": 3, "samples_per_class": 8,
            "test_samples_per_class": 6, "shape": [1, 8, 8], "noise_std": 0.1,
        },
        "train": {
            "method": "at", "lambda": 0.01, "beta": 0.0, "epochs": 1,
            "batch_size": 12, "lr": 0.05, "momentum": 0.9,
            "weight_decay": 0.0002, "milestones": [],
            "attack": {"epsilon": 0.1, "step_size": 0.05, "steps": 2,
                       "random_start": True, "lambda_attack": 0.01},
        },
        "attack_presets": {
            "pgd2": {"epsilon": 0.1, "step_size": 0.05, "steps": 2,
                     "random_start": True},
        },
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def nan_conv(model):
    """One NaN in the first conv weight; ReLU keeps it, so the clean logits are NaN."""
    dict(model.parameters())["block1.conv.weight"].data[0, 0, 0, 0] = np.nan


def nan_gradient(monkeypatch):
    """Finite clean passes, but every attack step's input gradient is NaN.

    The attack's backward runs on its objective times NaN, so the model
    stays finite and PGD spreads the NaN gradient into the adversarial
    input.
    """
    monkeypatch.setattr(attacks, "backward", lambda loss: backward(loss * np.nan))


def nan_conv_build(monkeypatch):
    """Every model built gets ``nan_conv``."""
    build = ModelSection.build

    def poisoned_build(section, seed):
        model = build(section, seed)
        nan_conv(model)
        return model

    monkeypatch.setattr(ModelSection, "build", poisoned_build)


def poisoned_checkpoint(ckpt, path, poison):
    model = load_checkpoint(ckpt)
    poison(model)
    save_checkpoint(model, path)
    return path


class FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class FakeLibc:
    def __init__(self):
        self.mallopt = FakeMallopt()


class TestKeepFreedPages:
    """``main`` asks glibc, once per process, to keep freed heap pages."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        cli._keep_freed_pages.cache_clear()
        yield
        cli._keep_freed_pages.cache_clear()

    @staticmethod
    def train_zero_epochs(tmp_path, name):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["train"]["epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        return main(["train", "--config", str(cfg_path), "--out", str(tmp_path / name)])

    def test_sets_both_thresholds_once_per_process(self, tmp_path, monkeypatch):
        opened = []

        def cdll(name):
            opened.append(name)
            return libc

        def find_library(name):
            raise AssertionError("find_library spawns a subprocess")

        libc = FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(ctypes.util, "find_library", find_library)
        assert self.train_zero_epochs(tmp_path, "a") == EXIT_OK
        assert self.train_zero_epochs(tmp_path, "b") == EXIT_OK
        assert opened == [None]
        assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_, M_TRIM_THRESHOLD
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_no_libc_does_nothing(self, tmp_path, monkeypatch):
        def cdll(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert self.train_zero_epochs(tmp_path, "run") == EXIT_OK

    def test_no_mallopt_symbol_does_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt attribute
        assert self.train_zero_epochs(tmp_path, "run") == EXIT_OK


class TestTrain:
    def test_writes_three_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "trainlog.csv").exists()
        assert (out / "resolved_config.json").exists()
        log_rows = read_rows(out / "trainlog.csv")
        assert len(log_rows) == 1

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["train"]["epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run0"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        from ewas.config import load_run_config

        run = load_run_config(cfg_path)
        fresh = run.model.build(run.seed)
        loaded = load_checkpoint(out / "checkpoint.ckpt")
        for (_, a), (_, b) in zip(fresh.parameters(), loaded.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        del cfg["data"]["samples_per_class"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "samples_per_class" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["train"]["warmup"] = 5
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "warmup" in capsys.readouterr().err

    def test_config_file_not_mutated(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        before = cfg_path.read_bytes()
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert cfg_path.read_bytes() == before

    @pytest.mark.parametrize("poison,message", [
        (nan_conv_build, "'natural' logits at epoch 0, batch 0"),
        (nan_gradient, "'inner' attack at epoch 0, batch 0"),
    ], ids=["nan_conv", "nan_gradient"])
    def test_non_finite_model_aborts_without_checkpoint(self, poison, message, tmp_path,
                                                       monkeypatch, capsys):
        poison(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run_nan"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_ABORT
        assert not (out / "checkpoint.ckpt").exists()
        assert message in capsys.readouterr().err

    def test_snapshot_enables_exact_rerun(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        snapshot = out1 / "resolved_config.json"
        assert main(["train", "--config", str(snapshot), "--out", str(out2)]) == EXIT_OK
        a = (out1 / "checkpoint.ckpt").read_bytes()
        b = (out2 / "checkpoint.ckpt").read_bytes()
        assert a == b


class TestEval:
    @pytest.fixture
    def trained(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        return cfg_path, out / "checkpoint.ckpt"

    def test_emits_csv_with_attack_rows(self, trained, tmp_path):
        cfg_path, ckpt = trained
        out = tmp_path / "eval_out"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "eval.csv")
        assert [r["attack"] for r in rows] == ["natural", "pgd2"]

    def test_checkpoint_class_count_must_fit_the_data(self, trained, tmp_path, capsys):
        cfg_path, ckpt = trained  # a 3-class model
        cfg = json.loads(cfg_path.read_text())
        cfg["data"]["num_classes"] = 4
        cfg2 = tmp_path / "cfg4.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "eval_k4"
        assert main(["eval", "--config", str(cfg2), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: model.num_classes: ")
        assert not out.exists()

    def test_empty_preset_list_natural_only(self, trained, tmp_path):
        cfg_path, ckpt = trained
        cfg = json.loads(cfg_path.read_text())
        cfg["attack_presets"] = {}
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "eval_nat"
        assert main(["eval", "--config", str(cfg2), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "eval.csv")
        assert [r["attack"] for r in rows] == ["natural"]

    def test_epsilon_zero_robust_equals_natural(self, trained, tmp_path):
        cfg_path, ckpt = trained
        cfg = json.loads(cfg_path.read_text())
        cfg["attack_presets"] = {"noop": {"epsilon": 0.0, "step_size": 0.01,
                                          "steps": 1}}
        cfg2 = tmp_path / "cfg3.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "eval_noop"
        main(["eval", "--config", str(cfg2), "--checkpoint", str(ckpt),
              "--out", str(out)])
        rows = read_rows(out / "eval.csv")
        assert rows[1]["robust_acc"] == rows[1]["natural_acc"]

    def test_reevaluation_byte_identical(self, trained, tmp_path):
        cfg_path, ckpt = trained
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                  "--out", str(out)])
            outs.append((out / "eval.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_checkpoint_is_io_error(self, trained, tmp_path):
        cfg_path, _ = trained
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_IO

    def test_nan_weight_checkpoint_aborts_without_csv(self, trained, tmp_path):
        cfg_path, ckpt = trained
        model = load_checkpoint(ckpt)
        dict(model.parameters())["head.weight"].data[0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(model, bad)
        out = tmp_path / "eval_nan"
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad),
                     "--out", str(out)])
        assert code == EXIT_ABORT
        assert not (out / "eval.csv").exists()

    def test_nan_adversarial_input_aborts_without_csv(self, trained, tmp_path, capsys,
                                                      monkeypatch):
        cfg_path, ckpt = trained
        nan_gradient(monkeypatch)
        out = tmp_path / "eval_nan_conv"
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)])
        assert code == EXIT_ABORT
        assert not (out / "eval.csv").exists()
        err = capsys.readouterr().err
        assert "'pgd2'" in err and "batch 0" in err

    def test_nan_conv_weight_aborts_natural_only_eval(self, trained, tmp_path, capsys):
        cfg_path, ckpt = trained
        bad = poisoned_checkpoint(ckpt, tmp_path / "nan_conv.ckpt", nan_conv)
        cfg = json.loads(cfg_path.read_text())
        cfg["attack_presets"] = {}
        cfg2 = tmp_path / "cfg_nat.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "eval_nan_nat"
        code = main(["eval", "--config", str(cfg2), "--checkpoint", str(bad),
                     "--out", str(out)])
        assert code == EXIT_ABORT
        assert not (out / "eval.csv").exists()
        assert "'natural' logits at batch 0" in capsys.readouterr().err

    def test_corrupt_arch_name_is_io_error(self, trained, tmp_path):
        cfg_path, ckpt = trained
        blob = bytearray(ckpt.read_bytes())
        at = blob.index(b"small_cnn")
        blob[at + 8] ^= 0x0E  # "small_cnn" -> "small_cn`"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_IO


class TestAblate:
    def test_lambda_sweep_two_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "lambda",
                     "--values", "0.01,0.05", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "ablation.csv", header=False)
        assert rows[0] == ["lambda", "natural_acc", "pgd2"]
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["0.01", "0.05"]

    def test_position_sweep_uses_insertion_points(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "pos"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "position",
                     "--values", "block3,block4", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "ablation.csv", header=False)
        assert [r[0] for r in rows[1:]] == ["block3", "block4"]

    def test_unknown_position_fails_before_any_training(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "pos_bad"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "position",
                     "--values", "block4,blockX", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: --values: ")
        assert not out.exists()

    def test_attack_lambda_reuses_checkpoint(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        train_out = tmp_path / "t"
        main(["train", "--config", str(cfg_path), "--out", str(train_out)])
        out = tmp_path / "al"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "attack_lambda",
                     "--values", "0,0.01", "--out", str(out),
                     "--checkpoint", str(train_out / "checkpoint.ckpt")]) == EXIT_OK
        rows = read_rows(out / "ablation.csv", header=False)
        assert len(rows) == 3
        # no per-point training directories when a checkpoint is reused
        assert not any(p.name.startswith("attack_lambda") for p in out.iterdir()
                       if p.is_dir())

    def test_attack_lambda_checkpoint_needs_no_train_section(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["train"]["epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "t")]) == EXIT_OK
        del cfg["train"]
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "al"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "attack_lambda",
                     "--values", "0,0.01", "--out", str(out),
                     "--checkpoint", str(tmp_path / "t" / "checkpoint.ckpt")]) == EXIT_OK
        rows = read_rows(out / "ablation.csv", header=False)
        assert [r[0] for r in rows] == ["attack_lambda", "0.0", "0.01"]

    @pytest.mark.parametrize("axis,values", [("lambda", "0.01"), ("position", "block4")])
    def test_checkpoint_only_with_attack_lambda(self, tmp_path, capsys, axis, values):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "ab"
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg_path), "--axis", axis,
                     "--values", values, "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: --checkpoint: ")
        assert not out.exists()

    def test_invalid_axis_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["ablate", "--config", str(cfg_path), "--axis", "widths",
                     "--values", "1"]) == EXIT_USAGE

    def test_paper_lambda_sweep_values_accepted(self, tmp_path):
        from ewas.cli import _parse_values

        vals = _parse_values("lambda", "0.01,0.05,0.1,0.5,1,2")
        assert vals == [0.01, 0.05, 0.1, 0.5, 1.0, 2.0]


class TestRejectedBeforeOutput:
    """Input errors that only show once a split is loaded or a seed is drawn
    from still exit 1 before the output directory is made."""

    @pytest.mark.parametrize("argv", [["ablate", "--axis", "attack_lambda", "--values", "0"],
                                      ["eval", "--checkpoint"]], ids=["ablate", "eval"])
    def test_empty_test_split(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        cfg["train"]["epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "t")]) == EXIT_OK
        cfg["data"]["test_samples_per_class"] = 0
        cfg_path.write_text(json.dumps(cfg))
        if argv[-1] == "--checkpoint":
            argv = argv + [str(tmp_path / "t" / "checkpoint.ckpt")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: data: the test split has no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,drop,edit,message", [
        (["train"], "train", None, "train: required section is missing for train"),
        (["ablate", "--axis", "attack_lambda", "--values", "0"], "train", None,
         "train: required section is missing for ablate"),
        (["export-activations", "--checkpoint"], "analysis", None,
         "analysis: required section is missing for export-activations"),
        (["export-activations", "--checkpoint"], None, 5,
         "analysis.class_label: no test samples of class 5"),
    ], ids=["train", "ablate", "export_analysis", "export_class_label"])
    def test_missing_section_or_class(self, argv, drop, edit, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, analysis={"layer": "block4"})
        cfg["train"]["epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "t")]) == EXIT_OK
        if drop is not None:
            del cfg[drop]
        if edit is not None:
            cfg["analysis"]["class_label"] = edit
        cfg_path.write_text(json.dumps(cfg))
        if argv[-1] == "--checkpoint":
            argv = argv + [str(tmp_path / "t" / "checkpoint.ckpt")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--seed", "-1",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: --seed: must be >= 0, got -1\n"
        assert not out.exists()


class TestLambdaNeedsModule:
    """A positive lambda on a model without a scaling module exits 1 naming its
    key, before the output directory is made. A config must fit its own model
    section; a checkpoint is held only to the attack presets."""

    BARE, EWAS = "<bare.ckpt>", "<ewas.ckpt>"

    @pytest.fixture
    def bare(self, tmp_path):
        """A config whose model has no insertion points and whose lambdas are 0,
        with the 0-epoch checkpoints of that model and of the default one."""
        cfg_path = tmp_path / "bare.json"
        cfg = write_config(cfg_path)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "e")]) == EXIT_OK
        cfg["model"]["insertion_points"] = []
        cfg["train"].update(epochs=0, **{"lambda": 0.0})
        cfg["train"]["attack"]["lambda_attack"] = 0.0
        cfg["analysis"] = {"layer": "block4", "attack": "pgd2"}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "t")]) == EXIT_OK
        return cfg, {self.BARE: str(tmp_path / "t" / "checkpoint.ckpt"),
                     self.EWAS: str(tmp_path / "e" / "checkpoint.ckpt")}

    @pytest.mark.parametrize("argv,edit,key", [
        (["train"], ("train", "lambda"), "train.lambda: 0.5 > 0"),
        (["train"], ("train", "attack", "lambda_attack"),
         "train.attack.lambda_attack: 0.5 > 0"),
        (["train"], ("attack_presets", "pgd2", "lambda_attack"),
         "attack_presets.pgd2.lambda_attack: 0.5 > 0"),
        (["eval", "--checkpoint", BARE], ("attack_presets", "pgd2", "lambda_attack"),
         "attack_presets.pgd2.lambda_attack: 0.5 > 0"),
        (["eval", "--checkpoint", EWAS], ("attack_presets", "pgd2", "lambda_attack"),
         "attack_presets.pgd2.lambda_attack: 0.5 > 0"),
        (["export-activations", "--checkpoint", BARE],
         ("attack_presets", "pgd2", "lambda_attack"),
         "attack_presets.pgd2.lambda_attack: 0.5 > 0"),
        (["ablate", "--axis", "lambda", "--values", "0,0.25"], None, "--values: 0.25 > 0"),
        (["ablate", "--axis", "lambda", "--values", "0"],
         ("attack_presets", "pgd2", "lambda_attack"),
         "attack_presets.pgd2.lambda_attack: 0.5 > 0"),
        (["ablate", "--axis", "attack_lambda", "--values", "0,0.25"], None,
         "--values: 0.25 > 0"),
        (["ablate", "--axis", "attack_lambda", "--values", "0,0.25", "--checkpoint", BARE],
         None, "--values: 0.25 > 0"),
        (["ablate", "--axis", "attack_lambda", "--values", "0"], ("train", "lambda"),
         "train.lambda: 0.5 > 0"),
        (["ablate", "--axis", "position", "--values", "block4"], ("train", "lambda"),
         "train.lambda: 0.5 > 0"),
    ], ids=["train", "train_attack", "train_preset", "eval", "eval_ewas_ckpt", "export",
            "ablate_lambda", "ablate_preset", "ablate_attack_lambda",
            "ablate_attack_lambda_ckpt", "ablate_train", "ablate_position"])
    def test_exits_before_any_output(self, bare, argv, edit, key, tmp_path, capsys):
        cfg, ckpts = bare
        if edit is not None:
            *path, last = edit
            section = cfg
            for name in path:
                section = section[name]
            section[last] = 0.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [ckpts.get(a, a) for a in argv]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: {key} requires a "
                                                  "scaling module")
        assert not out.exists()

    @pytest.mark.parametrize("axis,values", [
        ("attack_lambda", "0.01,nan"), ("attack_lambda", "0.01,-0.5"),
        ("attack_lambda", "0,-1"), ("attack_lambda", "0.01,inf"), ("lambda", "0.01,-inf"),
    ])
    def test_bad_lambda_values_exit_before_any_output(self, axis, values, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(cfg_path), "--axis", axis,
                     "--values", values, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"config error: --values: axis {axis!r} takes finite lambdas >= 0, got ")
        assert not out.exists()

    def test_train_lambdas_are_not_checked_against_a_checkpoint(self, bare, tmp_path):
        """A module config evaluates a baseline checkpoint: only the presets'
        lambdas, all 0 here, must find a module in it."""
        _, ckpts = bare
        cfg_path = tmp_path / "ewas.json"
        cfg = write_config(cfg_path)
        assert cfg["train"]["lambda"] > 0 and cfg["model"]["insertion_points"]
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpts[self.BARE],
                     "--out", str(out)]) == EXIT_OK
        assert (out / "eval.csv").exists()


class TestExportActivations:
    @pytest.fixture
    def trained(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, analysis={"layer": "block4", "class_label": 0,
                                         "attack": "pgd2", "scope": "sample",
                                         "split": "test"})
        out = tmp_path / "t"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        return cfg_path, out / "checkpoint.ckpt"

    def test_full_export_with_adversarial(self, trained, tmp_path):
        cfg_path, ckpt = trained
        out = tmp_path / "act"
        assert main(["export-activations", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "activations.csv")
        assert rows and "adversarial_value" in rows[0]
        # re-validate against the analysis oracles
        from ewas.analysis import ActivationStats, channel_ordering
        from ewas.config import load_run_config

        run = load_run_config(cfg_path)
        model = load_checkpoint(ckpt)
        ds = run.data.load("test", run.seed)
        keep = ds.labels == 0
        from ewas.tensor import no_grad

        with no_grad():
            fwd = model.forward(ds.images[keep], mask_mode="inference",
                                capture=("block4",))
        nat = ActivationStats.collect(list(fwd.captured["block4"].data), 0, "natural")
        freq_rows = [r for r in rows if r["statistic_kind"] == "frequency"]
        assert [int(r["channel_index"]) for r in freq_rows] == \
            list(channel_ordering(nat, "frequency"))
        for r in freq_rows:
            assert float(r["natural_value"]) == pytest.approx(
                nat.frequency[int(r["channel_index"])])

    def test_rerun_with_random_start_is_byte_identical(self, trained, tmp_path):
        cfg_path, ckpt = trained  # the pgd2 preset starts at a random point
        outs = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            assert main(["export-activations", "--config", str(cfg_path),
                         "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_OK
            outs.append((out / "activations.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_nan_adversarial_input_aborts_without_csv(self, trained, tmp_path, capsys,
                                                      monkeypatch):
        cfg_path, ckpt = trained
        nan_gradient(monkeypatch)
        out = tmp_path / "act_nan_conv"
        code = main(["export-activations", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == EXIT_ABORT
        assert not (out / "activations.csv").exists()
        err = capsys.readouterr().err
        assert "'pgd2'" in err and "batch 0" in err

    def test_natural_only_omits_adversarial_column(self, trained, tmp_path):
        cfg_path, ckpt = trained
        cfg = json.loads(cfg_path.read_text())
        cfg["analysis"]["attack"] = None
        cfg2 = tmp_path / "cfg_nat.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "act_nat"
        assert main(["export-activations", "--config", str(cfg2),
                     "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "activations.csv")
        assert "adversarial_value" not in rows[0]

    def test_nan_conv_weight_aborts_natural_only_export(self, trained, tmp_path, capsys):
        cfg_path, ckpt = trained
        bad = poisoned_checkpoint(ckpt, tmp_path / "nan_conv.ckpt", nan_conv)
        cfg = json.loads(cfg_path.read_text())
        cfg["analysis"]["attack"] = None
        cfg2 = tmp_path / "cfg_nat.json"
        cfg2.write_text(json.dumps(cfg))
        out = tmp_path / "act_nan_nat"
        code = main(["export-activations", "--config", str(cfg2),
                     "--checkpoint", str(bad), "--out", str(out)])
        assert code == EXIT_ABORT
        assert not (out / "activations.csv").exists()
        assert "'natural' block4 activations at batch 0" in capsys.readouterr().err

    def test_unknown_hook_lists_valid_hooks(self, trained, tmp_path, capsys):
        cfg_path, ckpt = trained
        cfg = json.loads(cfg_path.read_text())
        cfg["analysis"]["layer"] = "blockZ"
        cfg2 = tmp_path / "cfg_bad.json"
        cfg2.write_text(json.dumps(cfg))
        assert main(["export-activations", "--config", str(cfg2),
                     "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "block1" in err and "block4" in err

    def test_single_sample_class_frequencies_binary(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     data={"kind": "synthetic", "num_classes": 3,
                           "samples_per_class": 8, "test_samples_per_class": 1,
                           "shape": [1, 8, 8], "noise_std": 0.1},
                     analysis={"layer": "block4", "class_label": 0,
                               "attack": None, "scope": "sample",
                               "split": "test"})
        out = tmp_path / "t"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        act_out = tmp_path / "act1"
        assert main(["export-activations", "--config", str(cfg_path),
                     "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--out", str(act_out)]) == EXIT_OK
        rows = [r for r in read_rows(act_out / "activations.csv")
                if r["statistic_kind"] == "frequency"]
        assert all(float(r["natural_value"]) in (0.0, 1.0) for r in rows)
