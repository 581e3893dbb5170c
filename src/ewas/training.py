"""Adversarial training loops and the composite losses with scaling terms.

Three training methods are supported. Writing p for backbone softmax
probabilities, p_hat for a scaling module's classifier probabilities,
lam for the module trade-off weight and beta for the robustness weight:

* at:     CE(p(x_adv), y) + lam * CE_alc(x_adv, y)
* trades: CE(p(x), y) + beta * KL(p(x) || p(x_adv))
          + lam * CE_alc(x, y) + lam * beta * KL_alc(x || x_adv)
* mart:   BCE(p(x_adv), y) + beta * KL(p(x) || p(x_adv)) * (1 - p_y(x))
          + lam * BCE_alc(x_adv, y)
          + lam * beta * KL_alc(x || x_adv) * (1 - p_hat_y(x))

KL terms use the natural-input distribution as the reference, and the
(1 - p_y) weights apply per sample before batch averaging. With several
scaling modules the auxiliary terms are summed with equal weight lam.

The inner maximization generates adversarial examples with PGD as
``train.attack`` sets it up, with that attack's own ``loss_kind`` and
``lambda_attack``, not the training lam.
Batch-norm statistics are frozen while the attack runs and updated only
by the outer step's forward passes.

A non-finite clean logit, attack output or loss is never scored: the
function that computes it raises ``NonFiniteError`` naming the pass, the
batch and, in training, the epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .attacks import AttackConfig, loss_heads, pgd, require_modules
from .data import EVAL_ATTACK, TRAIN_ATTACK, BatchIterator, Dataset, stream
from .errors import ConfigError, NonFiniteError
from .models import Model, save_checkpoint
from .tensor import (
    Tensor,
    add,
    backward,
    boosted_cross_entropy,
    gather_labels,
    kl_divergence,
    mul,
    no_grad,
    softmax,
    softmax_cross_entropy,
    tmean,
)

METHODS = ("at", "trades", "mart")


@dataclass
class TrainConfig:
    """Outer-training hyperparameters: the keys and defaults of a config's train section.

    ``lam`` is the JSON key ``lambda``; ``seed`` is the run seed, not a key.
    """

    epochs: int
    attack: AttackConfig
    method: str = "at"
    lam: float = 0.0
    beta: float = 0.0
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    milestones: tuple[int, ...] = ()
    lr_decay: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method: must be one of {METHODS}, got {self.method!r}")
        if not self.lam >= 0:  # written so NaN fails too
            raise ConfigError(f"lambda: must be >= 0, got {self.lam}")
        if not self.beta >= 0:
            raise ConfigError(f"beta: must be >= 0, got {self.beta}")
        if self.epochs < 0:
            raise ConfigError(f"epochs: must be >= 0, got {self.epochs}")
        if self.batch_size < 2:  # train-mode batch norm needs 2 samples
            raise ConfigError(f"batch_size: must be >= 2, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum: must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay: must be >= 0, got {self.weight_decay}")
        if not self.lr_decay > 0:
            raise ConfigError(f"lr_decay: must be > 0, got {self.lr_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones: must be strictly increasing, got {ms}")
        if ms and ms[-1] >= self.epochs:
            raise ConfigError(
                f"milestones: must be < epochs ({self.epochs}), got {ms}"
            )
        self.milestones = ms


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    natural_acc: float
    robust_acc: float
    loss_total: float
    loss_parts: dict[str, float]
    wall_time: float

    CSV_PARTS = ("cls", "alc", "kl", "alc_kl")

    @classmethod
    def csv_header(cls) -> list[str]:
        return (["epoch", "lr", "natural_acc", "robust_acc", "loss_total"]
                + [f"loss_{p}" for p in cls.CSV_PARTS] + ["wall_time_s"])

    def csv_row(self) -> list[str]:
        vals = [self.epoch, f"{self.lr:.6g}", f"{self.natural_acc:.6f}",
                f"{self.robust_acc:.6f}", f"{self.loss_total:.10g}"]
        vals += [f"{self.loss_parts.get(p, 0.0):.10g}" for p in self.CSV_PARTS]
        vals.append(f"{self.wall_time:.3f}")
        return [str(v) for v in vals]


# ---------------------------------------------------------------------------
# composite losses
# ---------------------------------------------------------------------------

def _head_terms(method: str, s_nat, s_adv, y, beta: float):
    """One head's classification term and its unweighted KL term (None if beta is 0)."""
    if method == "at":
        return softmax_cross_entropy(s_adv, y), None
    if method == "trades":
        ce = softmax_cross_entropy(s_nat, y)
        return ce, kl_divergence(softmax(s_nat), softmax(s_adv)) if beta > 0 else None
    p_adv = softmax(s_adv)
    bce = boosted_cross_entropy(p_adv, y)
    if beta == 0:
        return bce, None
    p_nat = softmax(s_nat)
    row_kl = kl_divergence(p_nat, p_adv, reduction="none")
    return bce, tmean(mul(row_kl, 1.0 - gather_labels(p_nat, y)))


def loss_terms(method: str, model: Model, x, x_adv, y, lam: float,
               beta: float) -> dict[str, Tensor]:
    """Terms of ``method``'s loss, the backbone with weight 1 and each module with lam;
    ``"total"`` is their sum. ``x`` is unused by AT.

    Both forwards run in train mode, TRADES and MART the natural one
    first: each updates the batch-norm running statistics.
    """
    require_modules(model.ewas_modules, "lambda", lam)

    def heads(inputs):
        out = model.forward(inputs, labels=y, train=True, mask_mode="training")
        return loss_heads(out, lam)

    nat = heads(x) if method != "at" else None
    adv = heads(x_adv)
    if nat is None:
        nat = [None] * len(adv)
    (cls, kl), *alc = [_head_terms(method, s_nat, s_adv, y, beta)
                       for s_nat, s_adv in zip(nat, adv)]
    terms = {"cls": cls}
    if kl is not None:
        terms["kl"] = beta * kl
    if alc:
        terms["alc"] = lam * reduce(add, [c for c, _ in alc])
        if kl is not None:
            terms["alc_kl"] = (lam * beta) * reduce(add, [k for _, k in alc])
    total = terms["cls"]
    for key in ("kl", "alc", "alc_kl"):
        if key in terms:
            total = total + terms[key]
    terms["total"] = total
    return terms


_TERM_FNS = {method: partial(loss_terms, method) for method in METHODS}


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, named_params, lr: float, momentum: float, weight_decay: float):
        self.params = [t for _, t in named_params]
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """v <- momentum v + (grad + wd param); param <- param - lr v, in place,
        then clear every gradient. A parameter without a gradient has grad 0."""
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            v += (p.grad if p.grad is not None else 0.0) + self.weight_decay * p.data
            p.data -= self.lr * v
            p.zero_grad()


def lr_schedule(epoch: int, base_lr: float, milestones, factor: float = 0.1) -> float:
    """base_lr times factor to the number of milestones <= epoch."""
    return base_lr * factor ** sum(1 for m in milestones if m <= epoch)


# ---------------------------------------------------------------------------
# training loop and evaluation
# ---------------------------------------------------------------------------

EVAL_BATCH = 128


def consecutive_batches(images: np.ndarray, labels: np.ndarray):
    """(images, labels) slices of ``EVAL_BATCH`` rows, in dataset order."""
    for start in range(0, len(labels), EVAL_BATCH):
        yield images[start:start + EVAL_BATCH], labels[start:start + EVAL_BATCH]


def attack_batches(model: Model, images: np.ndarray, labels: np.ndarray,
                   config: AttackConfig):
    """Yield the ``AdversarialBatch`` of each consecutive batch in turn.

    Batch ``bi`` is attacked with the ``stream(config.seed, EVAL_ATTACK, bi)``
    seed (see ``_checked_pgd``), so a rerun is bit-identical. A non-finite
    adversarial input or final objective raises ``NonFiniteError`` naming
    the attack and the batch.
    """
    for bi, (xb, yb) in enumerate(consecutive_batches(images, labels)):
        yield _checked_pgd(model, xb, yb, config, stream(config.seed, EVAL_ATTACK, bi), bi)


def _checked_pgd(model: Model, x, y, config: AttackConfig, rng: np.random.Generator,
                 batch: int, epoch: int | None = None):
    """``pgd`` seeded with the first 32-bit word drawn from ``rng``; a non-finite
    adversarial input or final objective raises ``NonFiniteError`` naming the
    attack, ``batch`` and ``epoch``."""
    adv = pgd(model, x, y, replace(config, seed=int(rng.integers(2**32))))
    if not (np.isfinite(adv.x_adv).all() and np.isfinite(adv.loss).all()):
        raise NonFiniteError(f"{config.name!r} attack", batch, epoch)
    return adv


def _accuracy(model: Model, x: np.ndarray, y: np.ndarray, batch: int,
              epoch: int | None = None) -> np.ndarray:
    """Per-row mask of rows whose logit argmax is the label; a non-finite logit
    raises ``NonFiniteError`` naming the clean pass, ``batch`` and ``epoch``."""
    with no_grad():
        logits = model.forward(x, labels=y, train=False, mask_mode="inference").logits.data
    if not np.isfinite(logits).all():
        raise NonFiniteError("'natural' logits", batch, epoch)
    return logits.argmax(axis=1) == y


def train(model: Model, dataset: Dataset, config: TrainConfig,
          out_dir=None, config_digest: str = "") -> tuple[Model, list[EpochRecord]]:
    """Run adversarial training; returns the trained model and its epoch records.

    Epoch ``e`` is shuffled by ``SHUFFLE`` of ``config.seed``, and its batch
    ``bi`` attacked with the ``TRAIN_ATTACK`` (e, bi) seed of the attack (see
    ``_checked_pgd``). A sample is robust only if it is classified correctly
    both clean and at the attack's final iterate.

    When ``out_dir`` is given, a train-log CSV row is appended after each
    epoch and a final checkpoint is written (float64 payload iff the
    model computes in float64, so the saved model reproduces evaluation
    results exactly). Non-finite clean logits, inner-attack output or loss
    raise ``NonFiniteError`` naming the pass, the epoch and the batch, and
    no checkpoint is written.
    """
    if len(dataset) == 0:
        raise ConfigError("train: dataset is empty")
    require_modules(model.ewas_modules, "train.lambda", config.lam)
    require_modules(model.ewas_modules, "train.attack.lambda_attack",
                    config.attack.lambda_attack)
    term_fn = _TERM_FNS[config.method]

    log: list[EpochRecord] = []
    log_fh = None
    if out_dir is not None:
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_fh = open(out_dir / "trainlog.csv", "w", newline="")
        log_fh.write(",".join(EpochRecord.csv_header()) + "\n")
        log_fh.flush()

    opt = SGD(model.parameters(), config.lr, config.momentum, config.weight_decay)
    it = BatchIterator(dataset, config.batch_size, config.seed)
    try:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            opt.lr = lr_schedule(epoch, config.lr, config.milestones, config.lr_decay)
            n_seen = n_nat = n_rob = 0
            loss_sums: dict[str, float] = {}
            n_batches = 0
            for bi, (xb, yb) in enumerate(it.next_epoch()):
                correct = _accuracy(model, xb, yb, bi, epoch)  # same state as adv.success
                adv = _checked_pgd(model, xb, yb, config.attack,
                                   stream(config.attack.seed, TRAIN_ATTACK, epoch, bi),
                                   bi, epoch)
                terms = term_fn(model, xb, adv.x_adv, yb, config.lam, config.beta)
                loss = terms["total"]
                if not np.isfinite(loss.data):
                    raise NonFiniteError("loss", bi, epoch)
                backward(loss)
                opt.step()
                n_seen += len(yb)
                n_nat += int(correct.sum())
                n_rob += int((correct & ~adv.success).sum())
                for key, t in terms.items():
                    loss_sums[key] = loss_sums.get(key, 0.0) + float(t.data)
                n_batches += 1
            rec = EpochRecord(
                epoch=epoch,
                lr=opt.lr,
                natural_acc=n_nat / n_seen,
                robust_acc=n_rob / n_seen,
                loss_total=loss_sums.get("total", 0.0) / n_batches,
                loss_parts={k: v / n_batches for k, v in loss_sums.items() if k != "total"},
                wall_time=time.perf_counter() - t0,
            )
            log.append(rec)
            if log_fh is not None:
                log_fh.write(",".join(rec.csv_row()) + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()

    if out_dir is not None:
        save_checkpoint(
            model, out_dir / "checkpoint.ckpt", epoch=config.epochs,
            seed=config.seed, config_digest=config_digest,
        )
    return model, log


@dataclass
class AttackRow:
    name: str
    epsilon: float
    steps: int
    lambda_attack: float
    robust_acc: float


@dataclass
class EvalReport:
    natural_acc: float
    rows: list[AttackRow]

    CSV_HEADER = ["attack", "epsilon", "steps", "lambda_attack",
                  "natural_acc", "robust_acc"]

    def csv_rows(self) -> list[list[str]]:
        natural = f"{self.natural_acc:.6f}"
        out = [["natural", "0", "0", "0", natural, natural]]
        for r in self.rows:
            out.append([r.name, f"{r.epsilon:.8g}", str(r.steps),
                        f"{r.lambda_attack:.8g}", natural, f"{r.robust_acc:.6f}"])
        return out

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            for row in self.csv_rows():
                w.writerow(row)


def evaluate(model: Model, dataset: Dataset, attacks: list[AttackConfig]) -> EvalReport:
    """Natural accuracy plus robust accuracy per attack over the full set.

    A sample counts as robust only if it is labeled correctly both clean and
    at the attack's final iterate, so robust accuracy never exceeds natural
    accuracy. Both passes run in batches of ``EVAL_BATCH``, the attacks
    through ``attack_batches``. An empty dataset is a ``ConfigError``. A
    non-finite natural logit, adversarial input or final attack objective
    raises ``NonFiniteError``.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("evaluate: dataset is empty")
    correct = np.concatenate([_accuracy(model, xb, yb, bi) for bi, (xb, yb) in enumerate(
        consecutive_batches(dataset.images, dataset.labels))])
    natural = int(correct.sum()) / n

    rows = []
    for cfg in attacks:
        success = np.concatenate([adv.success for adv in attack_batches(
            model, dataset.images, dataset.labels, cfg)])
        rows.append(AttackRow(cfg.name, cfg.epsilon, cfg.steps, cfg.lambda_attack,
                              int((correct & ~success).sum()) / n))
    return EvalReport(natural, rows)
