"""Per-layer tracing of ewas from outside the package.

``Tracer.install()`` replaces public functions of ``tensor``, ``scaling``,
``models``, ``attacks``, ``training``, ``data`` and ``config`` with timed
wrappers. Modules import functions by name (``cli.evaluate``,
``training.pgd``, ``models.conv2d``, ...), so every module attribute that
is bound to a wrapped function is rebound; ``uninstall()`` restores them.

Spans nest: each span adds its duration to its parent's child time, so a
layer's self time is its time minus the time of the spans it called.
Backward time per op is measured by replacing the ``_grad_fn`` of every
tensor an op returns with a timed closure; the tape's own time is
``backward`` minus all ``_grad_fn`` time.

Counts marked "computed" are derived from argument shapes, not timed, and
repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from ewas import attacks, cli, config, data, models, scaling, tensor, training

_MODULES = (tensor, scaling, models, attacks, training, data, config, cli)
_NOT_OPS = {"backward", "no_grad"}


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)   # inclusive seconds per span key
        self.child = defaultdict(float)  # seconds of spans nested in each key
        self.count = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, key: str, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.time[key] += dt
            self.child[key] += frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def self_time(self, *keys: str) -> float:
        return sum(self.time[k] - self.child[k] for k in keys)

    # -- installation ----------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every module attribute bound to ``original`` at ``wrapper``."""
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(key, fn, *args, **kwargs)
        return wrapper

    def _op(self, name: str, fn):
        """Time an autodiff op's forward call and its backward closure."""
        fwd, bwd = f"tensor.{name}.fwd", f"tensor.{name}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(fwd, fn, *args, **kwargs)
            if isinstance(out, tensor.Tensor) and out._grad_fn is not None:
                self.count["tensor.tape_nodes"] += 1
                grad_fn = out._grad_fn
                out._grad_fn = lambda g: self.span(bwd, grad_fn, g)
            if name == "conv2d":
                self._conv2d_counts(args[0], args[1], out)
            return out
        return wrapper

    def _conv2d_counts(self, x, weight, out) -> None:
        b, cin, _, _ = x.data.shape
        cout, _, kh, kw = weight.data.shape
        ho, wo = out.data.shape[2:]
        self.count["tensor.conv2d_calls"] += 1
        self.count["tensor.conv2d_flops"] += 2 * b * ho * wo * cout * cin * kh * kw
        self.count["tensor.conv2d_patch_bytes"] += (
            b * ho * wo * cin * kh * kw * x.data.dtype.itemsize)

    def install(self) -> None:
        for name, fn in list(vars(tensor).items()):
            if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                    and not name.startswith("_") and name not in _NOT_OPS):
                self._rebind(fn, self._op(name, fn))
        for key, fn in [("tensor.backward", tensor.backward),
                        ("config.load", config.load_run_config),
                        ("training.train", training.train),
                        ("training.evaluate", training.evaluate),
                        ("training.accuracy", training._accuracy)]:
            self._rebind(fn, self._timed(key, fn))
        self._set(config.ModelSection, "build",
                  self._timed("models.build", config.ModelSection.build))
        self._set(config.DataSection, "load",
                  self._timed("data.load", config.DataSection.load))
        self._set(training.SGD, "step",
                  self._timed("training.sgd_step", training.SGD.step))
        for method, fn in list(training._TERM_FNS.items()):
            self._set_item(training._TERM_FNS, method,
                           self._timed("training.loss_terms", fn))
        self._rebind(attacks.pgd, self._pgd(attacks.pgd))
        self._rebind(scaling.ewas_forward, self._ewas_forward(scaling.ewas_forward))
        self._rebind(models.save_checkpoint,
                     self._checkpoint("models.checkpoint_save", models.save_checkpoint, 1))
        self._rebind(models.load_checkpoint,
                     self._checkpoint("models.checkpoint_load", models.load_checkpoint, 0))
        self._set(models.Model, "forward", self._forward(models.Model.forward))
        self._set(data.BatchIterator, "next_epoch",
                  self._next_epoch(data.BatchIterator.next_epoch))

    def _set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append((mapping, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- wrappers that also count --------------------------------------------

    def _pgd(self, fn):
        @functools.wraps(fn)
        def wrapper(model, x, y, cfg):
            adv = self.span("attacks.pgd", fn, model, x, y, cfg)
            self.count["attacks.grad_evals"] += cfg.steps * len(y)
            self.count["attacks.samples"] += len(y)
            self.count["attacks.successes"] += int(np.count_nonzero(adv.success))
            return adv
        return wrapper

    def _ewas_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(z, params, labels=None, mode="training"):
            out = self.span("scaling.ewas_forward", fn, z, params, labels, mode)
            if mode == "inference" and labels is not None:
                picked = out[1].data.argmax(axis=1)
                self.count["scaling.masks"] += len(picked)
                self.count["scaling.mask_flips"] += int(
                    np.count_nonzero(picked != np.asarray(labels)))
            return out
        return wrapper

    def _checkpoint(self, key: str, fn, path_arg: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(key, fn, *args, **kwargs)
            self.count["models.checkpoint_bytes"] += os.path.getsize(args[path_arg])
            return out
        return wrapper

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, x, labels=None, train=False, mask_mode="inference",
                    capture=()):
            key = "models.forward_train" if train else "models.forward_eval"
            self.count["models.forward_calls"] += 1
            return self.span(key, fn, model, x, labels, train, mask_mode, capture)
        return wrapper

    def _next_epoch(self, fn):
        @functools.wraps(fn)
        def wrapper(iterator):
            batches = fn(iterator)
            while True:
                try:
                    batch = self.span("data.batch_wait", next, batches)
                except StopIteration:
                    return
                yield batch
        return wrapper


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced op, as ``name -> (value, unit)``."""
    def per_op(*keys):
        return sum(tr.time[k] for k in keys) / ops

    def ratio(num, den):
        return tr.count[num] / tr.count[den] if tr.count[den] else 0.0

    op_names = {k[len("tensor."):-len(".fwd")] for k in tr.time
                if k.startswith("tensor.") and k.endswith(".fwd")}
    others = sorted(op_names - {"conv2d", "batch_norm2d"})
    return {
        "cli.self_s": (tr.self_time("cli.main") / ops, "s"),
        "config.load_s": (per_op("config.load"), "s"),
        "data.load_s": (per_op("data.load"), "s"),
        "data.batch_wait_s": (per_op("data.batch_wait"), "s"),
        "models.forward_train_s": (per_op("models.forward_train"), "s"),
        "models.forward_eval_s": (per_op("models.forward_eval"), "s"),
        "models.forward_calls": (tr.count["models.forward_calls"] / ops, "count"),
        "models.checkpoint_save_s": (per_op("models.checkpoint_save"), "s"),
        "models.checkpoint_load_s": (per_op("models.checkpoint_load"), "s"),
        "models.checkpoint_bytes": (tr.count["models.checkpoint_bytes"] / ops, "B"),
        "scaling.ewas_forward_s": (per_op("scaling.ewas_forward"), "s"),
        "scaling.take_columns_bwd_s": (per_op("tensor.take_columns.bwd"), "s"),
        "scaling.mask_flip_ratio": (ratio("scaling.mask_flips", "scaling.masks"), "ratio"),
        "attacks.pgd_s": (per_op("attacks.pgd"), "s"),
        "attacks.pgd_self_s": (tr.self_time("attacks.pgd") / ops, "s"),
        "attacks.grad_evals": (tr.count["attacks.grad_evals"] / ops, "evals-computed"),
        "attacks.success_ratio": (ratio("attacks.successes", "attacks.samples"), "ratio"),
        "training.loss_terms_s": (per_op("training.loss_terms"), "s"),
        "training.sgd_step_s": (per_op("training.sgd_step"), "s"),
        "training.accuracy_s": (per_op("training.accuracy"), "s"),
        "training.self_s": (tr.self_time("training.train", "training.evaluate") / ops, "s"),
        "tensor.conv2d_fwd_s": (per_op("tensor.conv2d.fwd"), "s"),
        "tensor.conv2d_bwd_s": (per_op("tensor.conv2d.bwd"), "s"),
        "tensor.conv2d_calls": (tr.count["tensor.conv2d_calls"] / ops, "count"),
        "tensor.conv2d_flops": (tr.count["tensor.conv2d_flops"] / ops, "flop-computed"),
        "tensor.conv2d_patch_bytes": (tr.count["tensor.conv2d_patch_bytes"] / ops,
                                      "B-computed"),
        "tensor.batch_norm2d_fwd_s": (per_op("tensor.batch_norm2d.fwd"), "s"),
        "tensor.batch_norm2d_bwd_s": (per_op("tensor.batch_norm2d.bwd"), "s"),
        "tensor.other_ops_fwd_s": (per_op(*(f"tensor.{n}.fwd" for n in others)), "s"),
        "tensor.other_ops_bwd_s": (per_op(*(f"tensor.{n}.bwd" for n in others)), "s"),
        "tensor.backward_s": (per_op("tensor.backward"), "s"),
        "tensor.tape_self_s": (tr.self_time("tensor.backward") / ops, "s"),
        "tensor.tape_nodes": (tr.count["tensor.tape_nodes"] / ops, "nodes-computed"),
    }
