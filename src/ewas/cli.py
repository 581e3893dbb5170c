"""Command-line entry point: train, eval, ablate, export-activations.

Every command validates its config fully before doing work, writes a
resolved-config snapshot into the output directory, and never mutates
its input files. The config checks, a checkpoint's model against the
config included, are ``RunConfig``'s; this module names only its own
flags. Exit codes: 0 success, 1 usage or config error,
2 runtime abort (non-finite value), 3 IO or checkpoint error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import ActivationStats, export_stats
from .attacks import require_modules
from .config import RunConfig, load_run_config
from .data import Dataset
from .errors import CheckpointError, ConfigError, DataFormatError, NonFiniteError
from .models import ModelSection, load_checkpoint
from .tensor import no_grad
from .training import TrainConfig, attack_batches, consecutive_batches, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_IO = 3
_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _prepare_out(cfg: RunConfig, out_override: str | None) -> Path:
    out_dir = Path(out_override) if out_override else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(cfg.snapshot_json() + "\n")
    return out_dir


def _trained(cfg: RunConfig, spec: ModelSection, point: TrainConfig,
             train_set: Dataset, out_dir: Path):
    """The model ``spec`` describes, built from the run seed and trained as ``point``."""
    model, _ = train(spec.build(cfg.seed), train_set, point, out_dir=out_dir,
                     config_digest=cfg.digest())
    return model


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    point = cfg.required("train", cfg.train, "train")
    train_set = cfg.load_split("train", cfg.model)
    out_dir = _prepare_out(cfg, args.out)
    _trained(cfg, cfg.model, point, train_set, out_dir)
    print(f"wrote {out_dir / 'checkpoint.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    model = load_checkpoint(args.checkpoint)
    cfg.check_model(model.spec)
    test_set = cfg.load_split("test", model.spec)
    out_dir = _prepare_out(cfg, args.out)
    report = evaluate(model, test_set, list(cfg.attack_presets.values()))
    report.write_csv(out_dir / "eval.csv")
    print(f"wrote {out_dir / 'eval.csv'}")
    return EXIT_OK


def _parse_values(axis: str, raw: str) -> list:
    vals = [v.strip() for v in raw.split(",") if v.strip()]
    if not vals:
        raise ConfigError("--values: at least one value is required")
    if axis != "position":
        try:
            vals = [float(v) for v in vals]
        except ValueError as exc:
            raise ConfigError(f"--values: expected numbers for axis {axis!r}: {exc}") from exc
        for lam in vals:
            if not (math.isfinite(lam) and lam >= 0):
                raise ConfigError(f"--values: axis {axis!r} takes finite lambdas >= 0, "
                                  f"got {lam:g}")
    for i, v in enumerate(vals):  # a repeat would run a point twice: two rows, one directory
        if v in vals[:i]:
            raise ConfigError(f"--values: {v} is given more than once")
    return vals


def cmd_ablate(args) -> int:
    if args.checkpoint and args.axis != "attack_lambda":
        raise ConfigError(f"--checkpoint: only the attack_lambda axis reuses a checkpoint; "
                          f"axis {args.axis!r} trains its own models")
    cfg = load_run_config(args.config, args.seed)
    values = _parse_values(args.axis, args.values)
    model = None
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)  # evaluated, not trained
    else:
        cfg.required("train", cfg.train, "ablate")
    spec = model.spec if model else cfg.model
    preset_names = sorted(cfg.attack_presets)
    if args.axis == "position":  # every point is checked before any is trained
        try:
            specs = [replace(cfg.model, insertion_points=(v,)) for v in values]
        except ConfigError as exc:
            raise ConfigError(f"--values: {exc}") from exc
    else:  # a lambda axis: each point trains or attacks with lambda v
        for v in values:
            require_modules(spec.insertion_points, "--values", v)
    test_set = cfg.load_split("test", spec)
    train_set = None if model else cfg.load_split("train", cfg.model)
    out_dir = _prepare_out(cfg, args.out)
    presets = [cfg.attack_presets[n] for n in preset_names]
    if args.axis == "attack_lambda" and model is None:
        # one trained model; sweep only the evaluation attack's lambda
        model = _trained(cfg, cfg.model, cfg.train, train_set, out_dir)

    rows = []
    for i, v in enumerate(values):
        attacks = presets
        if args.axis == "attack_lambda":
            attacks = [replace(a, lambda_attack=v) for a in presets]
        else:
            point, spec = cfg.train, cfg.model
            if args.axis == "lambda":
                point = replace(cfg.train, lam=v,
                                attack=replace(cfg.train.attack, lambda_attack=v))
            else:  # position
                spec = specs[i]
            model = _trained(cfg, spec, point, train_set, out_dir / f"{args.axis}_{v}")
        report = evaluate(model, test_set, attacks)
        rows.append([v, report.natural_acc] + [r.robust_acc for r in report.rows])

    table = out_dir / "ablation.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([args.axis, "natural_acc"] + preset_names)
        for row in rows:
            w.writerow([row[0]] + [f"{v:.6f}" for v in row[1:]])
    print(f"wrote {table}")
    return EXIT_OK


def _collect_activations(model, images, labels, layer: str, source: str) -> np.ndarray:
    """The (N, C, H, W) activations at ``layer``; a non-finite one raises
    ``NonFiniteError`` naming ``source`` ("natural" or the attack), the layer
    and the batch."""
    acts = []
    for bi, (xb, yb) in enumerate(consecutive_batches(images, labels)):
        with no_grad():
            out = model.forward(xb, labels=yb, train=False,
                                mask_mode="inference", capture=(layer,))
        captured = out.captured[layer].data
        if not np.isfinite(captured).all():
            raise NonFiniteError(f"{source!r} {layer} activations", bi)
        acts.append(captured)
    return np.concatenate(acts)


def cmd_export_activations(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    analysis = cfg.required("analysis", cfg.analysis, "export-activations")
    model = load_checkpoint(args.checkpoint)
    cfg.check_model(model.spec)
    layer = analysis.layer
    images, labels = cfg.class_samples(model.spec)
    out_dir = _prepare_out(cfg, args.out)
    natural = ActivationStats.collect(
        _collect_activations(model, images, labels, layer, "natural"),
        analysis.class_label, "natural", analysis.scope,
    )
    adversarial = None
    if analysis.attack is not None:
        acfg = cfg.attack_presets[analysis.attack]
        adv_images = np.concatenate(
            [adv.x_adv for adv in attack_batches(model, images, labels, acfg)])
        adversarial = ActivationStats.collect(
            _collect_activations(model, adv_images, labels, layer, acfg.name),
            analysis.class_label, "adversarial", analysis.scope,
        )
    path = out_dir / "activations.csv"
    export_stats(natural, adversarial, path, layer)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ewas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint path")

    common(sub.add_parser("train", help="adversarially train a model"))
    common(sub.add_parser("eval", help="evaluate a checkpoint under attack presets"),
           checkpoint=True)
    ablate = sub.add_parser("ablate", help="sweep lambda, position, or attack lambda")
    common(ablate)
    ablate.add_argument("--axis", required=True,
                        choices=("lambda", "position", "attack_lambda"))
    ablate.add_argument("--values", required=True,
                        help="comma-separated sweep values")
    ablate.add_argument("--checkpoint", default=None,
                        help="reuse a trained checkpoint (attack_lambda axis only)")
    common(sub.add_parser("export-activations",
                          help="export per-channel activation statistics"),
           checkpoint=True)
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "export-activations": cmd_export_activations,
}


@functools.cache
def _keep_freed_pages() -> None:
    """Ask glibc, once per process, to keep freed buffers for reuse.

    ``backward`` frees each graph as it goes and the next step allocates
    the same buffers again. By default glibc returns freed heap to the
    system and faults it back in page by page; here buffers up to 32 MiB,
    the largest mmap threshold glibc accepts, come from the heap and up to
    1 GiB of free heap top is kept. A buffer above 32 MiB is still mapped
    and faulted in afresh each time; a band of ``conv2d``'s lowered input
    holds at most max(the padded input's bytes, 1 MiB). Where
    the C library cannot be opened by ``ctypes`` (Windows) or has no
    ``mallopt`` (macOS, other non-glibc libcs), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (CheckpointError, DataFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
