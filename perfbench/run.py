#!/usr/bin/env python3
"""Benchmark of ewas through its real command-line entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy-at --seed 1 --seconds 40 --trace 0

One closed-loop client runs the workload's op (the ``ewas`` commands in
``workloads.py``) again and again in this process, one synchronous
command at a time, until ``--seconds`` would be exceeded (at least two
ops). Every op uses the same config, generated from ``--seed``, so its
outputs must be byte-identical across repeats. BLAS runs on one thread.

``--trace 0`` reports the end-to-end metrics from unwrapped code; the
only patch is a first-batch timestamp on entry to ``train``/``evaluate``
that ends each command's set-up. ``--trace 1`` measures the first half of
the time untraced, then installs the wrappers of ``tracing.py`` and reports
per-layer metrics per traced op plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (commands) and ``metrics``; an
environment fingerprint is printed on the line before it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # extra set-ups per untraced run, for the median of setup_s


class FirstBatch(Exception):
    """Stops a command at its first batch, once its set-up is done."""


@dataclass
class Command:
    name: str
    wall: float = 0.0
    setup: float = 0.0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    commands: list[Command]
    natural_acc: float | None = None
    robust_acc_worst: float | None = None

    @property
    def setup(self) -> float:
        return sum(c.setup for c in self.commands)

    def work(self, name: str | None = None) -> float:
        return sum(c.wall - c.setup for c in self.commands if name in (None, c.name))


class Runner:
    """Runs one workload's ops in a scratch directory of the checkout."""

    def __init__(self, workload, work_dir: Path, cli, training):
        self.workload = workload
        self.dir = work_dir
        self.call = cli.main
        self.stamps: list[float] = []
        self.probing = False
        for name in ("train", "evaluate"):
            setattr(cli, name, self._stamped(training, name))
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1))
        self.checkpoint = None
        if workload.eval and not workload.train:
            prep = work_dir / "prep"
            if cli.main(["train", "--config", str(self.config_path),
                         "--out", str(prep)]) != 0:
                raise RuntimeError("could not write the checkpoint to evaluate")
            self.checkpoint = prep / "checkpoint.ckpt"

    def _stamped(self, training, name: str):
        # Looked up at call time, so the tracer's wrappers are honoured.
        def stamped(*args, **kwargs):
            self.stamps.append(perf_counter())
            if self.probing:
                raise FirstBatch
            return getattr(training, name)(*args, **kwargs)
        return stamped

    def _argvs(self) -> list[tuple[str, list[str]]]:
        w = self.workload
        base = ["--config", str(self.config_path)]
        argvs = []
        checkpoint = self.checkpoint
        if w.train:
            out = self.dir / "train"
            argvs.append(("train", ["train", *base, "--out", str(out)]))
            checkpoint = out / "checkpoint.ckpt"
        if w.eval:
            argvs.append(("eval", ["eval", *base, "--checkpoint", str(checkpoint),
                                   "--out", str(self.dir / "eval")]))
        return argvs

    def setup_probe(self) -> float:
        """Set-up time of one op, each command stopped at its first batch.

        Run after an op, so the checkpoint an eval command loads exists.
        """
        total = 0.0
        self.probing = True
        try:
            for _, argv in self._argvs():
                t0 = perf_counter()
                try:
                    self.call(argv)
                except FirstBatch:
                    total += self.stamps[-1] - t0
                else:
                    raise RuntimeError(f"{argv[0]} returned before its first batch")
        finally:
            self.probing = False
        return total

    def _command(self, name: str, argv: list[str]) -> Command:
        cmd = Command(name)
        first = len(self.stamps)
        t0 = perf_counter()
        try:
            code = self.call(argv)
        except Exception:  # the loop must go on; the command counts as failed
            traceback.print_exc()
            code = "exception"
        cmd.wall = perf_counter() - t0
        cmd.setup = self.stamps[first] - t0 if len(self.stamps) > first else cmd.wall
        if code != 0:
            cmd.failures.append(f"{name} exited with {code}")
        return cmd

    def op(self) -> Op:
        w = self.workload
        commands = [self._command(name, argv) for name, argv in self._argvs()]
        op = Op(commands)
        checks = {"train": lambda c: _check_train(w, self.dir / "train", c),
                  "eval": lambda c: _check_eval(w, self.dir / "eval", op, c)}
        for cmd in commands:
            if cmd.failures:
                continue
            try:
                checks[cmd.name](cmd)
            except (OSError, KeyError, ValueError, csv.Error) as exc:
                cmd.failures.append(f"unreadable output: {exc!r}")
        return op


def _finite(row: dict, keys, cmd: Command, where: str) -> bool:
    for k in keys:
        try:
            ok = math.isfinite(float(row[k]))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            cmd.failures.append(f"{where}: {k}={row[k]!r} is not a finite number")
            return False
    return True


def _check_train(w, out: Path, cmd: Command) -> None:
    with open(out / "trainlog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != w.config["train"]["epochs"]:
        cmd.failures.append(f"trainlog.csv has {len(rows)} rows")
    loss_cols = [k for k in (rows[0] if rows else {}) if k.startswith("loss_")]
    for i, row in enumerate(rows):
        _finite(row, loss_cols + ["natural_acc", "robust_acc"], cmd, f"trainlog row {i}")
    losses = "\n".join(",".join(row[k] for k in loss_cols) for row in rows)
    cmd.digests["trainlog.csv losses"] = hashlib.sha256(losses.encode()).hexdigest()
    cmd.digests["checkpoint.ckpt"] = _sha256(out / "checkpoint.ckpt")


def _check_eval(w, out: Path, op: Op, cmd: Command) -> None:
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1 + len(w.config["attack_presets"]) or rows[0]["attack"] != "natural":
        cmd.failures.append(f"eval.csv has unexpected rows {[r.get('attack') for r in rows]}")
        return
    if not all(_finite(r, ("natural_acc", "robust_acc"), cmd, f"eval.csv {r['attack']}")
               for r in rows):
        return
    natural = float(rows[0]["natural_acc"])
    for r in rows[1:]:
        if float(r["robust_acc"]) > float(r["natural_acc"]):
            cmd.failures.append(f"eval.csv {r['attack']}: robust_acc > natural_acc")
    if w.min_natural_acc is not None and natural < w.min_natural_acc:
        cmd.failures.append(f"natural_acc {natural} < {w.min_natural_acc}")
    op.natural_acc = natural
    op.robust_acc_worst = min(float(r["robust_acc"]) for r in rows[1:])
    cmd.digests["eval.csv"] = _sha256(out / "eval.csv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_ops(runner: Runner, seconds: float, min_ops: int) -> list[Op]:
    ops, walls = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops.append(runner.op())
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(ops) >= min_ops and elapsed + statistics.median(walls) > seconds:
            return ops


def _rate(w, ops: list[Op], phase: str | None = None) -> float:
    """Samples per second of command time after set-up, over all ``ops``."""
    samples = {"train": w.train_samples(), "eval": w.eval_samples()}
    per_op = samples[phase] if phase else sum(samples.values())
    work = sum(op.work(phase) for op in ops)
    return per_op * len(ops) / work if work > 0 else 0.0  # 0 only if all failed


def _check_repeats(ops: list[Op]) -> None:
    """Every op's outputs must match the first op's byte for byte."""
    for op in ops[1:]:
        for cmd, ref in zip(op.commands, ops[0].commands):
            for key, digest in cmd.digests.items():
                if ref.digests.get(key) != digest:
                    cmd.failures.append(f"{key} differs from the first repeat")


def _fingerprint(np, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_rev = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ewas").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "dtype": workload.dtype,
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _report(w, ops: list[Op], setups: list[float], trace_note: str) -> None:
    print(f"perfbench {w.name}: {len(ops)} ops{trace_note}")
    print(f"  {'setup_s':<22} {statistics.median(setups):.6g} s "
          f"(median over set-ups; {_quartiles(setups)})")
    phases = [None] + [p for p in ("train", "eval") if getattr(w, p)]
    for phase in phases:
        name = f"{phase}_samples_per_s" if phase else "samples_per_s"
        per_op = [_rate(w, [op], phase) for op in ops]
        print(f"  {name:<22} {_rate(w, ops, phase):.6g} samples/s "
              f"(all ops; per op {_quartiles(per_op)})")
    if w.eval and ops[0].natural_acc is not None:
        print(f"  {'natural_acc':<22} {ops[0].natural_acc:.6f} ratio")
        print(f"  {'robust_acc_worst':<22} {ops[0].robust_acc_worst:.6f} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ewas" / "__init__.py").is_file():
        print(f"perfbench: no ewas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: its idle workers spin, and on two cores the spinning
    # made the small-tensor toy workload slower and every workload noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from ewas import cli, training

    workload = WORKLOADS[args.workload](args.seed)
    work_dir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(workload, work_dir, cli, training)
        if args.trace:
            from tracing import Tracer, layer_metrics

            untraced = _run_ops(runner, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            runner.call = lambda argv: tracer.span("cli.main", cli.main, argv)
            try:
                traced = _run_ops(runner, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            ops = untraced + traced
            setups = [op.setup for op in ops]
            metrics = layer_metrics(tracer, len(traced))
            metrics["trace.overhead_ratio"] = (
                _rate(workload, untraced) / _rate(workload, traced), "ratio")
            note = f" ({len(untraced)} untraced, {len(traced)} traced)"
        else:
            ops = _run_ops(runner, args.seconds, 2)
            setups = [op.setup for op in ops]
            if not any(c.failures for op in ops for c in op.commands):
                setups += [runner.setup_probe() for _ in range(SETUP_PROBES)]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "samples_per_s": (_rate(workload, ops), "samples/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            note = ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    _check_repeats(ops)
    commands = [c for op in ops for c in op.commands]
    failed = [c for c in commands if c.failures]
    for c in failed:
        print(f"FAILED {c.name}: {'; '.join(c.failures)}", file=sys.stderr)
    _report(workload, ops, setups, note)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:.6g} {unit}")
    print(json.dumps({"env": _fingerprint(np, workload)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
