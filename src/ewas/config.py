"""Run-configuration files: JSON schema, strict validation, snapshots.

A run config has sections {model, data, train, attack_presets, output,
seed} plus an optional analysis section for activation export. Each
section is a dataclass whose init fields are its JSON keys, whose
defaults are the config's and whose ``__post_init__`` checks ranges;
``read_section`` builds one from JSON and rejects unknown keys, missing
fields, wrongly typed values and non-finite numbers with a
``ConfigError`` naming the field, before any work starts. The model
section is ``models.ModelSection``, the one description of a model, and
the data section the ``DataSection`` subclass its ``kind`` names. The
checks that relate a section to a model are ``RunConfig``'s:
``check_model`` (the analysis layer, the presets' lambdas), which parsing
runs on the config's own model, and ``load_split`` and
``class_samples`` (the data).

``RunConfig.resolved()`` returns the config with all defaults filled in;
commands write it next to their outputs so a run can be repeated
exactly. The digest of that snapshot identifies the run in checkpoints.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackConfig, require_modules
from .data import Dataset, load_cifar_binary, synth_dataset
from .errors import ConfigError
from .models import ModelSection
from .training import TrainConfig

_TOP_KEYS = {"seed", "output_dir", "model", "data", "train", "attack_presets", "analysis"}
# Field names whose JSON key differs: ``lambda`` is a Python keyword.
_JSON_KEYS = {"lam": "lambda"}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string"}
# Evaluating a class's string annotations dominates a read; there are few classes.
_type_hints = functools.cache(typing.get_type_hints)


def _object(raw, path: str) -> dict:
    if type(raw) is not dict:
        raise ConfigError(f"{path}: expected an object, got {json.dumps(raw)}")
    return raw


def _reject_unknown(section: dict, allowed, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return section[key]


def _typed(tp, value, path: str):
    """The JSON ``value`` checked against the annotation ``tp`` and converted to it.

    Integers must be JSON integers, booleans ``true``/``false`` and
    tuples or lists JSON arrays; an integer in a float field becomes a
    float, and NaN or an infinity is rejected.
    """
    if typing.get_origin(tp) is types.UnionType:  # ``X | None``
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if typing.get_origin(tp) in (tuple, list):
        if type(value) is not list:
            raise ConfigError(f"{path}: expected a list, got {json.dumps(value)}")
        item = typing.get_args(tp)[0]
        return typing.get_origin(tp)(_typed(item, v, f"{path}[{i}]")
                                     for i, v in enumerate(value))
    if tp is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{path}: expected {_TYPE_NAMES[tp]}, got {json.dumps(value)}")
    return value


def read_section(cls, raw, path: str, defaults: dict | None = None, **given):
    """Build the dataclass ``cls`` from the JSON object ``raw`` found at ``path``.

    The JSON keys are the init fields of ``cls`` (``lambda`` for ``lam``)
    other than those in ``given``, whose values the caller supplies. A
    key left out takes its value from ``defaults``, else the field's
    default; a field with neither is required. Every error is a
    ``ConfigError`` naming ``<path>.<key>``.
    """
    _object(raw, path)
    hints = _type_hints(cls)
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)
              if f.init and f.name not in given}
    _reject_unknown(raw, fields, path)
    kwargs = dict(given)
    for key, f in fields.items():
        if key in raw:
            kwargs[f.name] = _typed(hints[f.name], raw[key], f"{path}.{key}")
        elif defaults and key in defaults:
            kwargs[f.name] = defaults[key]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}.{key}: required field is missing")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # __post_init__ messages start with the key
        raise ConfigError(f"{path}.{exc}") from exc


@dataclass(kw_only=True)
class DataSection:
    """A data kind: a subclass named by ``kind``, whose fields (``num_classes``
    among them) are the section's other keys and whose ``_read`` loads a split."""

    kind: typing.ClassVar[str]
    seed: int | None = None  # None: the run seed

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes: must be >= 2, got {self.num_classes}")

    def load(self, split: str, default_seed: int) -> Dataset:
        """The ``split`` data, drawn with ``default_seed`` if the section has no seed."""
        return self._read(split, self.seed if self.seed is not None else default_seed)


@dataclass
class _SyntheticData(DataSection):
    kind = "synthetic"
    samples_per_class: int
    num_classes: int = 3
    test_samples_per_class: int | None = None  # None: samples_per_class
    shape: tuple[int, ...] = (1, 8, 8)
    noise_std: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if len(self.shape) != 3 or min(self.shape) < 1:
            raise ConfigError(f"shape: must be [C, H, W] of positive integers, "
                              f"got {list(self.shape)}")
        if self.test_samples_per_class is None:
            self.test_samples_per_class = self.samples_per_class
        for key in ("samples_per_class", "test_samples_per_class"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}: must be >= 0, got {getattr(self, key)}")
        if not self.noise_std >= 0:  # written so NaN fails too
            raise ConfigError(f"noise_std: must be >= 0, got {self.noise_std}")

    def _read(self, split: str, seed: int) -> Dataset:
        per_class = self.samples_per_class if split == "train" else self.test_samples_per_class
        return synth_dataset(self.num_classes, per_class, self.shape, seed=seed,
                             noise_std=self.noise_std, split=split)


@dataclass
class _CifarBinaryData(DataSection):
    kind = "cifar_binary"
    train_files: list[str]
    test_files: list[str]
    num_classes: int = 10

    def __post_init__(self):
        super().__post_init__()
        for key in ("train_files", "test_files"):
            if not getattr(self, key):
                raise ConfigError(f"{key}: must name at least one file")

    def _read(self, split: str, seed: int) -> Dataset:
        files = self.train_files if split == "train" else self.test_files
        return load_cifar_binary(files, self.num_classes)


_DATA_KINDS = {cls.kind: cls for cls in (_SyntheticData, _CifarBinaryData)}


@dataclass
class AnalysisSection:
    layer: str
    class_label: int = 0
    attack: str | None = None  # name of an attack preset, or None for natural-only
    scope: str = "sample"
    split: str = "test"

    def __post_init__(self):
        if self.scope not in ("sample", "dataset"):
            raise ConfigError(f"scope: must be sample|dataset, got {self.scope!r}")
        if self.split not in ("train", "test"):
            raise ConfigError(f"split: must be train|test, got {self.split!r}")


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    model: ModelSection
    data: DataSection
    train: TrainConfig | None
    attack_presets: dict[str, AttackConfig] = field(default_factory=dict)
    analysis: AnalysisSection | None = None

    def resolved(self) -> dict:
        out = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        out["data"] = {"kind": self.data.kind, **out["data"]}
        if "train" in out:  # its seed is the run seed, already at the top
            out["train"] = {_JSON_KEYS.get(k, k): v for k, v in out["train"].items()
                            if k != "seed"}
        return out

    @staticmethod
    def required(key: str, section, command: str | None = None):
        """``section``, the top-level section ``key``; ``None`` (missing) is a
        ``ConfigError`` naming the key and the ``command`` that needs it."""
        if section is None:
            needed_by = f" for {command}" if command else ""
            raise ConfigError(f"{key}: required section is missing{needed_by}")
        return section

    def check_model(self, spec: ModelSection) -> None:
        """``analysis.layer`` must be an insertion point of the model ``spec``
        describes, and a preset's positive ``lambda_attack`` needs one of its
        scaling modules; else a ``ConfigError`` names the key."""
        if self.analysis is not None:
            spec.check_hooks("analysis.layer", [self.analysis.layer])
        for name, preset in self.attack_presets.items():
            require_modules(spec.insertion_points, f"attack_presets.{name}.lambda_attack",
                            preset.lambda_attack)

    def load_split(self, split: str, spec: ModelSection) -> Dataset:
        """The ``split`` data for a command that trains or evaluates on it: it
        must fit the model ``spec`` describes (``_fitting_split``), and a train
        split whose last batch would hold one sample (train-mode batch norm
        needs 2) is a ``ConfigError`` naming ``train.batch_size``."""
        data = self._fitting_split(split, spec)
        if split == "train" and self.train and len(data) % self.train.batch_size == 1:
            raise ConfigError(f"train.batch_size: {self.train.batch_size} leaves the last of "
                              f"the {len(data)} train samples in a batch of one; train-mode "
                              "batch norm needs 2")
        return data

    def _fitting_split(self, split: str, spec: ModelSection) -> Dataset:
        """The ``split`` data; an empty split, or a class count or image shape
        that does not fit the model ``spec`` describes, is a ``ConfigError``
        naming the key."""
        data = self.data.load(split, self.seed)
        if len(data) == 0:
            raise ConfigError(f"data: the {split} split has no samples")
        if data.num_classes != spec.num_classes:
            raise ConfigError(f"model.num_classes: the model has {spec.num_classes} classes, "
                              f"the {split} data {data.num_classes}")
        if data.images.shape[1:] != spec.input_shape:
            raise ConfigError(f"model.input_shape: the model takes {list(spec.input_shape)}, "
                              f"the {split} images are {list(data.images.shape[1:])}")
        return data

    def class_samples(self, spec: ModelSection) -> tuple[np.ndarray, np.ndarray]:
        """The images and labels of ``analysis.class_label`` in the analysis
        split, which must fit the model ``spec`` describes; a class with no
        samples there is a ``ConfigError`` naming ``analysis.class_label``.
        Nothing trains on them, so ``train.batch_size`` is not checked."""
        analysis = self.required("analysis", self.analysis)
        data = self._fitting_split(analysis.split, spec)
        keep = data.labels == analysis.class_label
        if not keep.any():
            raise ConfigError(f"analysis.class_label: no {analysis.split} samples of "
                              f"class {analysis.class_label}")
        return data.images[keep], data.labels[keep]

    def snapshot_json(self) -> str:
        return json.dumps(self.resolved(), indent=2, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved(), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _parse_data(raw) -> DataSection:
    options = dict(_object(raw, "data"))
    kind = _typed(str, _need(options, "kind", "data"), "data.kind")
    if kind not in _DATA_KINDS:
        raise ConfigError(f"data.kind: must be one of {sorted(_DATA_KINDS)}, got {kind!r}")
    del options["kind"]
    return read_section(_DATA_KINDS[kind], options, "data")


def _parse_attack(raw, path: str, seed: int, name: str) -> AttackConfig:
    """An attack section whose seed defaults to the run seed and name to its label."""
    return read_section(AttackConfig, raw, path, defaults={"seed": seed, "name": name})


def _parse_train(raw, seed: int) -> TrainConfig:
    train = dict(_object(raw, "train"))  # its attack, read first, passes the type check
    train["attack"] = _parse_attack(_need(train, "attack", "train"), "train.attack",
                                    seed, "inner")
    return read_section(TrainConfig, train, "train", seed=seed)


def parse_run_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config dict, each section against the config's own model
    (the data only in ``load_split``); raises ConfigError naming bad fields."""
    _reject_unknown(_object(raw, "config root"), _TOP_KEYS, "config root")
    if seed_override is None:
        seed, seed_key = _typed(int, raw.get("seed", 0), "seed"), "seed"
    else:
        seed, seed_key = seed_override, "--seed"
    if seed < 0:
        raise ConfigError(f"{seed_key}: must be >= 0, got {seed}")
    model = read_section(ModelSection, raw.get("model", {}), "model")
    data = _parse_data(RunConfig.required("data", raw.get("data")))
    train = _parse_train(raw["train"], seed) if "train" in raw else None
    presets = {name: _parse_attack(sub, f"attack_presets.{name}", seed, name)
               for name, sub in _object(raw.get("attack_presets", {}),
                                        "attack_presets").items()}
    analysis = (read_section(AnalysisSection, raw["analysis"], "analysis")
                if "analysis" in raw else None)
    if analysis is not None and analysis.attack not in (None, *presets):
        raise ConfigError(f"analysis.attack: {analysis.attack!r} is not an attack "
                          f"preset name")
    if train is not None:
        require_modules(model.insertion_points, "train.lambda", train.lam)
        require_modules(model.insertion_points, "train.attack.lambda_attack",
                        train.attack.lambda_attack)
    cfg = RunConfig(
        seed=seed,
        output_dir=_typed(str, raw.get("output_dir", "runs/run"), "output_dir"),
        model=model, data=data, train=train,
        attack_presets=presets, analysis=analysis,
    )
    cfg.check_model(model)
    return cfg


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_run_config(raw, seed_override)
