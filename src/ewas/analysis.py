"""Per-channel activation frequency and average-magnitude statistics.

Computed over a set of same-class activations captured at one layer,
separately for natural and adversarial inputs:

* frequency: a unit is valid iff its value is strictly greater than 1%
  of the maximum over that sample's entire activation; a channel counts
  for a sample iff it holds at least one valid unit; the frequency is
  the fraction of samples in which the channel counts.
* magnitude: each channel's per-sample maximum, averaged over samples.

The 1% threshold is per sample by default; ``scope="dataset"`` uses the
maximum over all samples instead. Exported tables order channels by the
descending natural-sample statistic, and adversarial rows reuse that
ordering rather than re-sorting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

STAT_KINDS = ("frequency", "magnitude")
VALIDITY_FRACTION = 0.01


def _stack(activations) -> np.ndarray:
    """An (N, C, H, W) array, or a list of N (C, H, W) arrays, as one array."""
    if len(activations) == 0:
        raise ConfigError("activation statistics need at least one sample")
    arr = np.asarray(activations)
    if arr.ndim != 4:
        raise ConfigError(f"expected per-sample (C, H, W) activations, got {arr.shape[1:]}")
    return arr


def activation_frequency(activations, scope: str = "sample") -> np.ndarray:
    """Fraction of samples in which each channel has a valid unit."""
    arr = _stack(activations)
    n = arr.shape[0]
    flat = arr.reshape(n, arr.shape[1], -1)
    if scope == "sample":
        thresholds = VALIDITY_FRACTION * arr.reshape(n, -1).max(axis=1)
        valid = flat.max(axis=2) > thresholds[:, None]
    elif scope == "dataset":
        valid = flat.max(axis=2) > VALIDITY_FRACTION * arr.max()
    else:
        raise ConfigError(f"scope must be sample|dataset, got {scope!r}")
    return valid.mean(axis=0)


def activation_magnitude(activations) -> np.ndarray:
    """Per-channel maximum per sample, averaged over the samples."""
    arr = _stack(activations)
    return arr.reshape(arr.shape[0], arr.shape[1], -1).max(axis=2).mean(axis=0)


@dataclass
class ActivationStats:
    """Both statistics for one (layer, class, input-kind) activation set."""

    frequency: np.ndarray
    magnitude: np.ndarray
    class_label: int
    input_kind: str  # natural | adversarial

    @classmethod
    def collect(cls, activations, class_label: int, input_kind: str,
                scope: str = "sample") -> "ActivationStats":
        return cls(
            frequency=activation_frequency(activations, scope),
            magnitude=activation_magnitude(activations),
            class_label=class_label,
            input_kind=input_kind,
        )

    def values(self, kind: str) -> np.ndarray:
        if kind not in STAT_KINDS:
            raise ConfigError(f"statistic kind must be one of {STAT_KINDS}, got {kind!r}")
        return self.frequency if kind == "frequency" else self.magnitude


def channel_ordering(natural: ActivationStats, kind: str) -> np.ndarray:
    """Channel permutation by descending natural-sample statistic (stable)."""
    return np.argsort(-natural.values(kind), kind="stable")


def export_stats(natural: ActivationStats, adversarial: ActivationStats | None,
                 path, layer: str) -> None:
    """Write the ranked statistics CSV.

    Columns: rank, channel_index, natural_value[, adversarial_value],
    statistic_kind, class, layer. Rows for both statistics appear in one
    file; each kind is ranked by its own natural-descending ordering and
    adversarial values follow the natural ordering.
    """
    if adversarial is not None:
        if adversarial.frequency.shape != natural.frequency.shape:
            raise ConfigError("natural/adversarial stats disagree on channel count")
        if adversarial.class_label != natural.class_label:
            raise ConfigError("natural/adversarial stats are for different classes")
    header = ["rank", "channel_index", "natural_value"]
    if adversarial is not None:
        header.append("adversarial_value")
    header += ["statistic_kind", "class", "layer"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for kind in STAT_KINDS:
            order = channel_ordering(natural, kind)
            nat_vals = natural.values(kind)
            adv_vals = adversarial.values(kind) if adversarial is not None else None
            for rank, ch in enumerate(order):
                row = [rank, int(ch), f"{nat_vals[ch]:.10g}"]
                if adv_vals is not None:
                    row.append(f"{adv_vals[ch]:.10g}")
                row += [kind, natural.class_label, layer]
                w.writerow(row)
