"""Backbone CNNs with named insertion points, plus checkpoint persistence.

A ``ModelSection`` is the one description of a model: architecture,
width, input shape, class count, insertion points and dtype. It checks
them, ``ModelSection.build(seed)`` builds the model, and checkpoints
embed it. Two architectures are provided:

* ``small_cnn`` -- a 4-block conv net (conv-BN-ReLU x4, two stride-2
  reductions at blocks 2 and 3, global average pool, linear head) with
  insertion points ``block1`` .. ``block4`` after each ReLU. This is the
  desk-scale workhorse.
* ``resnet18_like`` -- a width-scaled residual net with 8 basic
  blocks (2 per stage, 4 stages). Insertion points are named after conv
  ordinals ``layer1`` .. ``layer17`` (stem conv is ``layer1``; batch norm,
  ReLU and shortcut 1x1 convs are not counted); each tap sits after the
  ReLU that follows its conv. The shipped CIFAR-10 and SVHN configs
  attach their module at ``layer15``.

Any number of scaling modules can be attached at insertion points, the
same point more than once included; the forward pass then also returns
their classifier scores, entry ``i`` for ``model.ewas_modules[i]``.

Every conv feeds a batch norm. In eval mode, when grad mode is off or no
pair parameter requires grad (every attack step), the pair runs as one
conv with the norm folded into its weight and bias, and keeps nothing for
a gamma gradient; this rounds differently from conv then batch norm.

The forward code holds an activation only while it still reads it, and
the tape keeps only what a backward reads (see ``tensor``): an activation
lives as long as a reference to it. A frozen forward records a tape in
eval mode while no parameter requires grad: the input gradient of every
attack step. Its backward reads nothing of an activation but the sign of
each ReLU, so its ReLUs keep a bool mask instead of their output, and it
keeps no activation that it does not capture.

Checkpoints are a binary format: magic, version, metadata JSON (epoch,
seed, config digest, model description), named parameter records in the
order the layers were built (little-endian payloads in the model's
float32 or float64 dtype), and a trailing CRC-32. Loading rebuilds the
model from the embedded description and restores every parameter and
batch-norm running statistic.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointContentError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
)
from . import tensor
from .data import BACKBONE, MODULE, stream
from .scaling import EwasModule, ewas_forward
from .tensor import (
    BN_EPS,
    RunningStats,
    Tensor,
    add,
    add_rowvec,
    batch_norm2d,
    conv2d,
    global_avg_pool,
    matmul,
    no_grad,
    relu,
)

CHECKPOINT_MAGIC = b"EWASCKPT"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class ConvBnLayer:
    """A bias-free conv and the batch norm it feeds, whose beta is the bias.

    Its records keep the two halves' names: ``{conv_name}.weight``, then
    ``{bn_name}.gamma``, ``.beta``, ``.running_mean`` and ``.running_var``.
    Without a generator (``rng=None``) the weight is zeros, for a caller
    that overwrites it."""

    def __init__(self, conv_name: str, bn_name: str, cin: int, cout: int, kernel: int,
                 stride: int, padding: int, rng: np.random.Generator | None, dtype):
        self.conv_name = conv_name
        self.bn_name = bn_name
        self.stride = stride
        self.padding = padding
        fan_in = cin * kernel * kernel
        shape = (cout, cin, kernel, kernel)
        w = np.zeros(shape) if rng is None else rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        self.weight = Tensor(w.astype(dtype), requires_grad=True, dtype=dtype)
        self.gamma = Tensor(np.ones(cout, dtype=dtype), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True, dtype=dtype)
        self.stats = RunningStats.create(cout, dtype=dtype)

    def forward(self, x: Tensor, training: bool, relu: bool = False,
                keep_mask: bool = False) -> Tensor:
        """The conv then the batch norm, which normalizes in place in the conv's
        fresh output and keeps x̂ there, then max(·, 0) with ``relu``. In eval
        mode, when no gradient can reach the pair's parameters, one conv of
        weight W·s and bias β − mean·s, s = γ / sqrt(var + eps), recomputed
        on every call, then a ReLU that keeps its mask with ``keep_mask``."""
        live = tensor._grad_enabled and any(p.requires_grad for p in self.tensors())
        if training or live:
            h = conv2d(x, self.weight, None, self.stride, self.padding)
            return batch_norm2d(h, self.gamma, self.beta, self.stats, training,
                                relu=relu, inplace=True)
        s = self.gamma.data / np.sqrt(self.stats.var + BN_EPS)
        weight = Tensor(self.weight.data * s[:, None, None, None])
        bias = Tensor(self.beta.data - self.stats.mean * s)
        out = conv2d(x, weight, bias, self.stride, self.padding)
        return tensor.relu(out, keep_mask=keep_mask) if relu else out

    def tensors(self):
        return self.weight, self.gamma, self.beta

    def parameters(self):
        names = (f"{self.conv_name}.weight", f"{self.bn_name}.gamma", f"{self.bn_name}.beta")
        return list(zip(names, self.tensors()))

    def state_arrays(self):
        return [
            (f"{self.bn_name}.running_mean", self.stats.mean),
            (f"{self.bn_name}.running_var", self.stats.var),
        ]


class LinearLayer:
    """x @ W + b; zeros without a generator, like ``ConvBnLayer``."""

    def __init__(self, name: str, fan_in: int, fan_out: int,
                 rng: np.random.Generator | None, dtype):
        self.name = name
        bound = 1.0 / np.sqrt(fan_in)
        if rng is None:
            w, b = np.zeros((fan_in, fan_out)), np.zeros(fan_out)
        else:
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
        self.weight = Tensor(w.astype(dtype), requires_grad=True, dtype=dtype)
        self.bias = Tensor(b.astype(dtype), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return add_rowvec(matmul(x, self.weight), self.bias)

    def tensors(self):
        return self.weight, self.bias

    def parameters(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


# ---------------------------------------------------------------------------
# model description
# ---------------------------------------------------------------------------

@dataclass
class ModelSection:
    """A model's description: the keys and defaults of a config's model section.

    Every check of a description lives here, so a config error names its
    key; ``build`` makes the model it describes.
    """

    arch: str = "small_cnn"
    width: int = 8
    input_shape: tuple[int, ...] = (1, 8, 8)
    num_classes: int = 3
    insertion_points: tuple[str, ...] = ()
    dtype: str = "float64"

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        self.insertion_points = tuple(self.insertion_points)
        if self.arch not in _ARCHS:
            raise ConfigError(f"arch: unknown architecture {self.arch!r}; "
                              f"expected one of {sorted(_ARCHS)}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype: must be float32|float64, got {self.dtype!r}")
        shape = self.input_shape
        if len(shape) != 3 or shape[0] < 1 or min(shape[1:]) < 8:
            raise ConfigError(f"input_shape: must be [C, H, W] with C >= 1 and H, W >= 8, "
                              f"got {list(shape)}")
        arch = _ARCHS[self.arch]
        if self.width < arch.MIN_WIDTH:
            raise ConfigError(f"width: must be >= {arch.MIN_WIDTH} for {self.arch}, "
                              f"got {self.width}")
        self.check_hooks("insertion_points", self.insertion_points)
        if self.num_classes < 2:
            raise ConfigError(f"num_classes: must be >= 2, got {self.num_classes}")

    def check_hooks(self, key: str, names) -> None:
        """Each of ``names`` must be an insertion point of the arch, or a
        ``ConfigError`` names ``key`` and lists the valid points."""
        hooks = _ARCHS[self.arch].INSERTION_POINTS
        unknown = [name for name in names if name not in hooks]
        if unknown:
            raise ConfigError(f"{key}: unknown {unknown}; valid points: {', '.join(hooks)}")

    def build(self, seed: int | None) -> Model:
        """The described model: backbone weights from ``stream(seed, BACKBONE)``,
        then ``insert_ewas(model, host, seed)`` for each insertion point. With
        ``seed=None`` every weight is zeros and nothing is drawn, for a
        caller that overwrites them (``load_checkpoint``)."""
        model = _ARCHS[self.arch](self, seed)
        for host in self.insertion_points:
            insert_ewas(model, host, seed)
        return model


# ---------------------------------------------------------------------------
# model base
# ---------------------------------------------------------------------------

@dataclass
class ForwardOut:
    """Result of a model forward pass; ``alc_scores[i]`` holds the classifier
    scores of ``model.ewas_modules[i]``."""

    logits: Tensor
    alc_scores: list[Tensor] = field(default_factory=list)
    captured: dict[str, Tensor] = field(default_factory=dict)


class Model:
    """Shared machinery: the layer list, insertion-point taps, scaling modules.

    An architecture's constructor takes ``(spec, seed)``, draws its weights
    from ``stream(seed, BACKBONE)`` (zeros if it is ``None``) and registers
    each layer with ``_add`` as it builds it; that order is the order of
    ``parameters()``, ``state_arrays()`` and the checkpoint records.
    """

    arch = "model"
    MIN_WIDTH = 1
    INSERTION_POINTS: tuple[str, ...] = ()  # in forward order

    def __init__(self, spec: ModelSection):
        self.spec = spec
        self.num_classes = spec.num_classes
        self.dtype = np.dtype(spec.dtype).type
        self.layers: list = []
        self.ewas_modules: list[EwasModule] = []
        self.checkpoint_meta: dict = {}

    # subclasses provide INSERTION_POINTS and _run(x, training, ctx)

    def _add(self, layer):
        self.layers.append(layer)
        return layer

    def forward(self, x, labels=None, train: bool = False,
                mask_mode: str = "inference", capture=()) -> ForwardOut:
        """Run the network. ``train`` controls batch-norm behavior only;
        ``mask_mode`` controls scaling-mask selection for attached modules.

        ``capture`` is an iterable of insertion-point names whose outgoing
        activations (post-scaling, if a module is attached) are returned.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        elif x.data.dtype != np.dtype(self.dtype):
            raise ShapeError(
                f"input dtype {x.data.dtype} does not match model dtype {np.dtype(self.dtype)}"
            )
        frozen = (not train and x.requires_grad and tensor._grad_enabled
                  and not any(p.requires_grad for layer in self.layers for p in layer.tensors())
                  and not any(mod.weight.requires_grad for mod in self.ewas_modules))
        ctx = _ForwardCtx(self, labels, mask_mode, frozenset(capture), frozen)
        logits = self._run(x, train, ctx)
        return ForwardOut(logits, ctx.alc_scores, ctx.captured)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [rec for layer in self.layers for rec in layer.parameters()]
        for i, mod in enumerate(self.ewas_modules):
            out.append((f"ewas.{i}.{mod.host}.weight", mod.weight))
        return out

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Non-trained arrays persisted in checkpoints (BN running stats)."""
        return [rec for layer in self.layers if isinstance(layer, ConvBnLayer)
                for rec in layer.state_arrays()]


class _ForwardCtx:
    """Per-forward bookkeeping for taps: scaling, scores, captures.

    Scores are stored by module index, not in tap order: modules listed
    out of forward order still give ``alc_scores[i]`` for module ``i``.
    ``frozen`` marks a frozen forward (see the module docstring). A
    captured activation lives as long as ``captured``."""

    def __init__(self, model: Model, labels, mask_mode: str, capture: frozenset,
                 frozen: bool = False):
        self.model = model
        self.labels = labels
        self.mask_mode = mask_mode
        self.capture = capture
        self.frozen = frozen
        self.alc_scores: list[Tensor | None] = [None] * len(model.ewas_modules)
        self.captured: dict[str, Tensor] = {}

    def tap(self, name: str, h: Tensor) -> Tensor:
        for i, mod in enumerate(self.model.ewas_modules):
            if mod.host == name:
                h, scores = ewas_forward(h, mod.weight, self.labels, self.mask_mode)
                self.alc_scores[i] = scores
        if name in self.capture:
            self.captured[name] = h
        return h


# ---------------------------------------------------------------------------
# small CNN
# ---------------------------------------------------------------------------

class SmallCnn(Model):
    arch = "small_cnn"
    INSERTION_POINTS = ("block1", "block2", "block3", "block4")

    STRIDES = (1, 2, 2, 1)

    def __init__(self, spec: ModelSection, seed: int | None):
        super().__init__(spec)
        rng = stream(seed, BACKBONE)
        width = spec.width
        channels = (width, 2 * width, 4 * width, 4 * width)
        self.blocks = []
        cin = spec.input_shape[0]
        for name, cout, stride in zip(self.INSERTION_POINTS, channels, self.STRIDES):
            self.blocks.append((name, self._add(ConvBnLayer(
                f"{name}.conv", f"{name}.bn", cin, cout, 3, stride, 1, rng, self.dtype))))
            cin = cout
        self.head = self._add(LinearLayer("head", channels[-1], spec.num_classes, rng,
                                          self.dtype))

    def _run(self, x: Tensor, training: bool, ctx: _ForwardCtx) -> Tensor:
        h = x
        for name, layer in self.blocks:
            h = ctx.tap(name, layer.forward(h, training, relu=True, keep_mask=ctx.frozen))
        return self.head.forward(global_avg_pool(h))


# ---------------------------------------------------------------------------
# residual network
# ---------------------------------------------------------------------------

class BasicBlock:
    """conv-BN-ReLU, conv-BN, add shortcut, ReLU. Taps after each ReLU.

    Each batch norm keeps x̂ in its conv's output buffer. The first ReLU
    runs inside its batch norm, and ``conv2``'s weight gradient keeps its
    refill hook, not its output, so that output is freed once ``conv2``
    has read it, unless a tap scales or captures it. No backward reads
    the ``bn2`` output or a ``down`` shortcut, so they are freed after the
    add, and the add's sum after the last ReLU, which keeps its output.
    So the tape keeps 3 activation-sized buffers per identity block and 4
    per downsampling block. A frozen block (an attack step) keeps no
    activation buffer, only the 2 bool masks of its ReLUs. Batch norm
    writes only into its conv's fresh output, so the block input and
    every tapped activation are never written. Its layers are registered
    with ``model`` as they are built."""

    def __init__(self, model: Model, name: str, cin: int, cout: int, stride: int,
                 rng: np.random.Generator | None, tap1: str, tap2: str):
        keep, dtype = model._add, model.dtype
        self.name = name
        self.tap1 = tap1
        self.tap2 = tap2
        self.conv1 = keep(ConvBnLayer(f"{name}.conv1", f"{name}.bn1", cin, cout, 3, stride,
                                      1, rng, dtype))
        self.conv2 = keep(ConvBnLayer(f"{name}.conv2", f"{name}.bn2", cout, cout, 3, 1, 1,
                                      rng, dtype))
        self.down = None
        if stride != 1 or cin != cout:
            self.down = keep(ConvBnLayer(f"{name}.down", f"{name}.down_bn", cin, cout, 1,
                                         stride, 0, rng, dtype))

    def forward(self, x: Tensor, training: bool, ctx: _ForwardCtx) -> Tensor:
        h = ctx.tap(self.tap1, self.conv1.forward(x, training, relu=True,
                                                  keep_mask=ctx.frozen))
        h = self.conv2.forward(h, training)
        h = add(h, x if self.down is None else self.down.forward(x, training))
        return ctx.tap(self.tap2, relu(h, keep_mask=ctx.frozen))


class ResNetLike(Model):
    arch = "resnet18_like"
    MIN_WIDTH = 4
    INSERTION_POINTS = tuple(f"layer{i}" for i in range(1, 18))  # conv ordinals

    def __init__(self, spec: ModelSection, seed: int | None):
        super().__init__(spec)
        width = spec.width
        rng = stream(seed, BACKBONE)
        taps = iter(self.INSERTION_POINTS)
        self.stem = self._add(ConvBnLayer("stem.conv", "stem.bn", spec.input_shape[0], width,
                                          3, 1, 1, rng, self.dtype))
        self.stem_tap = next(taps)
        self.blocks: list[BasicBlock] = []
        cin = width
        for s, (cout, stride) in enumerate(
            zip((width, 2 * width, 4 * width, 8 * width), (1, 2, 2, 2))
        ):
            for b in range(2):
                self.blocks.append(
                    BasicBlock(self, f"stage{s + 1}.block{b + 1}", cin, cout,
                               stride if b == 0 else 1, rng, next(taps), next(taps))
                )
                cin = cout
        self.head = self._add(LinearLayer("head", 8 * width, spec.num_classes, rng,
                                          self.dtype))

    def _run(self, x: Tensor, training: bool, ctx: _ForwardCtx) -> Tensor:
        h = ctx.tap(self.stem_tap, self.stem.forward(x, training, relu=True,
                                                     keep_mask=ctx.frozen))
        for block in self.blocks:
            h = block.forward(h, training, ctx)
        return self.head.forward(global_avg_pool(h))


_ARCHS = {cls.arch: cls for cls in (SmallCnn, ResNetLike)}


def insert_ewas(model: Model, host_layer: str, seed: int | None = 0) -> Model:
    """Attach a scaling module with one column per model class, sized by a
    dry-run at ``host_layer``. Module ``i`` draws its weights from
    ``stream(seed, MODULE, i)``, or is zeros if ``seed`` is ``None``.

    Multiple insertions are kept in list order; a repeated host name
    scales the already-scaled activation.
    """
    model.spec.check_hooks("insertion point", [host_layer])
    with no_grad():
        probe = np.zeros((1, *model.spec.input_shape), dtype=model.dtype)
        flat = model.forward(probe, capture=(host_layer,)).captured[host_layer].data.size
    rng = stream(seed, MODULE, len(model.ewas_modules))
    model.ewas_modules.append(EwasModule.create(host_layer, flat, model.num_classes, rng,
                                                dtype=model.dtype))
    model.spec = replace(model.spec, insertion_points=tuple(
        m.host for m in model.ewas_modules))
    return model


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _param_records(model: Model) -> list[tuple[str, np.ndarray]]:
    records = [(name, t.data) for name, t in model.parameters()]
    records += model.state_arrays()
    return records


def save_checkpoint(model: Model, path, epoch: int | None = None,
                    seed: int | None = None, config_digest: str | None = None) -> None:
    """Write all parameters and running stats to a checkpoint file.

    Payloads are little-endian in the model's dtype, so a loaded model
    computes exactly as the saved one did. The metadata block embeds the
    model's ``ModelSection``, whose insertion points are its modules'
    hosts, so ``load_checkpoint`` can rebuild the model without outside
    information. Metadata fields left as ``None``
    keep the values carried over from a loaded checkpoint, so save ->
    load -> save is byte-stable.
    """
    carried = model.checkpoint_meta
    meta = {
        "epoch": int(epoch if epoch is not None else carried.get("epoch", 0)),
        "seed": int(seed if seed is not None else carried.get("seed", 0)),
        "config_digest": str(
            config_digest if config_digest is not None else carried.get("config_digest", "")
        ),
        "model": asdict(model.spec),
    }
    float64 = np.dtype(model.dtype) == np.float64
    payload_dtype = "<f8" if float64 else "<f4"
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<II", CHECKPOINT_VERSION, 1 if float64 else 0)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    buf += struct.pack("<Q", len(meta_bytes))
    buf += meta_bytes
    records = _param_records(model)
    buf += struct.pack("<I", len(records))
    for name, arr in records:
        name_b = name.encode()
        buf += struct.pack("<H", len(name_b))
        buf += name_b
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype=payload_dtype).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.blob)}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, restoring every array bit-exactly
    (relative to the stored payload precision).

    The record framing is walked and the CRC verified before the metadata
    is decoded or a model is built, so a corrupted byte fails with a
    ``CheckpointError``, never with a ``ConfigError`` from garbled metadata."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointTruncatedError("file shorter than the fixed header")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"bad magic {blob[:8]!r}")
    body = blob[:-4]
    r = _Reader(body)
    r.take(len(CHECKPOINT_MAGIC))
    version, f64_flag = r.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    (meta_len,) = r.unpack("<Q")
    meta_raw = r.take(meta_len)
    payload_dtype = np.dtype("<f8" if f64_flag else "<f4")
    (n_records,) = r.unpack("<I")
    records = []
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        name_raw = r.take(name_len)
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        records.append((name_raw, shape, r.take(math.prod(shape) * payload_dtype.itemsize)))
    if r.pos != len(body):
        raise CheckpointTruncatedError(f"{len(body) - r.pos} trailing bytes after records")
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", blob[-4:])[0]:
        raise CheckpointChecksumError("checksum mismatch; file is corrupt")

    try:
        meta = json.loads(meta_raw.decode())
        model = ModelSection(**meta["model"]).build(None)  # zeros: every array is read below
        model.checkpoint_meta = {key: meta[key] for key in ("epoch", "seed", "config_digest")}
        names = [name.decode() for name, _, _ in records]
    except (ValueError, KeyError, TypeError) as exc:  # ConfigError is a ValueError
        raise CheckpointContentError(f"metadata or record name invalid: {exc}") from exc
    expected = _param_records(model)
    known = dict(expected)
    bad = sorted({name for name in names if name not in known or names.count(name) > 1})
    if bad:
        raise CheckpointContentError(f"duplicate or unknown record names: {bad}")
    arrays = {name: np.frombuffer(raw, dtype=payload_dtype).reshape(shape)
              for name, (_, shape, raw) in zip(names, records)}
    missing = [name for name in known if name not in arrays]
    if missing:
        raise CheckpointTruncatedError(f"missing parameter records: {missing}")
    for name, target in expected:
        src = arrays[name].astype(target.dtype)
        if src.shape != target.shape:
            raise CheckpointTruncatedError(
                f"record {name!r} has shape {src.shape}, expected {target.shape}"
            )
        target[...] = src
    return model
