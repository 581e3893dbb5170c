"""Dataset ingestion (CIFAR-style binaries), synthetic data, batching.

Pixels are stored as float64 in [0, 1], computed exactly as byte/255.
No channel normalization or augmentation happens here: attacks operate
in raw pixel space, so the epsilon-ball is defined on what the loaders
return.

Every random draw of a run comes from ``stream``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CountMismatchError, DataFormatError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels

# The purposes of ``stream`` and their indices: SHUFFLE (epoch), MODULE (i), EVAL_ATTACK
# (batch), TRAIN_ATTACK (epoch, batch). Every output depends on these codes: never renumber.
TEMPLATES, TRAIN_NOISE, TEST_NOISE, SHUFFLE, BACKBONE, MODULE, EVAL_ATTACK, TRAIN_ATTACK = range(8)


def stream(seed: int | None, purpose: int, *indices: int) -> np.random.Generator | None:
    """The one seed rule: PCG64 seeded by ``SeedSequence([seed, purpose, *indices])``.
    Distinct lists give independent streams, bit-identical on every platform.
    None for ``seed=None``; a negative seed is a ``ConfigError``."""
    if seed is None:
        return None
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, purpose, *indices]))


@dataclass
class Dataset:
    """Images (N, C, H, W) in [0, 1] with integer labels in [0, K)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise DataFormatError(f"labels must be integers, got dtype {labels.dtype}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be (N, C, H, W), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise CountMismatchError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        if self.images.size and not (self.images.min() >= 0 and self.images.max() <= 1):
            raise DataFormatError("pixel values outside [0, 1] or not finite")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.images)


def load_cifar_binary(paths, num_classes: int = 10) -> Dataset:
    """Load a list of CIFAR-style binary batches: per record one label byte
    then 3072 pixel bytes (row-major R, G, B planes). Files concatenate in order,
    into arrays sized from the file sizes; one file's bytes are held at a time."""
    sizes = [Path(path).stat().st_size for path in paths]
    for path, size in zip(paths, sizes):
        if size % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(f"{path}: length {size} not divisible by {CIFAR_RECORD_BYTES}")
    n = sum(sizes) // CIFAR_RECORD_BYTES
    images, labels = np.empty((n, 3, 32, 32)), np.empty(n, dtype=np.int64)
    lo = 0
    for path in paths:
        raw = np.frombuffer(Path(path).read_bytes(), np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        hi = lo + len(raw)
        labels[lo:hi] = raw[:, 0]
        np.divide(raw[:, 1:].reshape(-1, 3, 32, 32), 255.0, out=images[lo:hi])
        lo = hi
    return Dataset(images, labels, num_classes)


def synth_dataset(num_classes: int, samples_per_class: int, shape,
                  seed: int = 0, noise_std: float = 0.1,
                  split: str = "train") -> Dataset:
    """Class-conditional synthetic images: a fixed random template per
    class plus per-sample Gaussian pixel noise, clamped to [0, 1].

    Templates come from ``stream(seed, TEMPLATES)`` and the noise from
    ``TRAIN_NOISE`` or ``TEST_NOISE``, so the splits share templates but
    not samples.
    """
    if split not in ("train", "test"):
        raise ConfigError(f"synth_dataset split must be train|test, got {split!r}")
    shape = tuple(int(v) for v in shape)
    templates = stream(seed, TEMPLATES).uniform(0.0, 1.0, size=(num_classes, *shape))
    noise_rng = stream(seed, TRAIN_NOISE if split == "train" else TEST_NOISE)
    images = np.empty((num_classes * samples_per_class, *shape), dtype=np.float64)
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    for k in range(num_classes):
        lo = k * samples_per_class
        noise = noise_rng.normal(0.0, noise_std, size=(samples_per_class, *shape)) \
            if noise_std > 0 else 0.0
        images[lo:lo + samples_per_class] = np.clip(templates[k] + noise, 0.0, 1.0)
        labels[lo:lo + samples_per_class] = k
    return Dataset(images, labels, num_classes)


def batches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Partition shuffled by ``stream(seed, SHUFFLE, epoch)``; the last short
    batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = stream(seed, SHUFFLE, epoch).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start:start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]


class BatchIterator:
    """Stateful wrapper over ``batches`` that advances its epoch counter."""

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed
        self.epoch = 0

    def next_epoch(self):
        epoch = self.epoch
        self.epoch += 1
        return batches(self.dataset, self.batch_size, self.seed, epoch)
