"""Deterministic n-d tensors with reverse-mode automatic differentiation.

The engine is a define-by-run tape over numpy arrays. Every operation
returns a new ``Tensor`` whose backward closure knows how to route an
incoming gradient to its parents. ``backward()`` walks the recorded graph
once, in reverse topological order, and accumulates gradients additively
into leaves that have ``requires_grad`` set.

Conventions that tests rely on:

* default dtype is float64; float32 is selectable per tensor/model,
* ``relu`` has subgradient 0 at exactly 0,
* shapes are logical: an op's result may be a non-contiguous view. A
  conv output is a (B, C, H, W) view of a C-contiguous (C, H, W, B)
  array; elementwise ops, batch norm and the scaling mask keep that
  batch-innermost layout, and the pool and ``matmul`` give their input
  gradients in it, so no conv needs a transposing copy but the first,
* flattening a (B, C, H, W) tensor is channel-major, then row, then
  column (numpy C order) whatever the memory order -- the single
  contract shared with the scaling module's mask reformat,
* a graph may be backpropagated exactly once, and ``backward`` frees it
  entry by entry as it goes,
* the tape is a graph of entries, never of tensors: an op result that
  requires grad holds a ``_Node`` with its backward closure and its
  parents' entries, and a leaf (a parameter, a folded weight, an attack
  input) is its own entry. A closure captures at forward time only the
  arrays and flags its backward reads, so an activation lives as long as
  a reference to it: the model code, a capture, or a closure that reads
  it. ``conv2d`` reads its input only for a weight gradient, ``relu`` its
  output (or with ``keep_mask=True`` the bool mask ``out > 0``, one byte
  per element), ``batch_norm2d`` its normalized input x̂; ``add``,
  ``reshape`` and the pool read nothing of an activation, and ``mul`` and
  ``matmul`` keep an operand's array only if the other operand requires
  grad when the forward runs. No closure keeps a copy of an activation:
  only the (B, K) loss ops keep intermediates (Chen et al. 2016,
  arXiv:1604.06174),
* ``batch_norm2d(..., inplace=True)`` writes x̂ into its operand's
  ``data``, and its backward reads it there instead of recomputing it.
  That is legal only when the operand is a fresh op result whose
  producer's backward does not read it (``conv2d``), and nothing else
  reads the operand afterwards; a leaf that requires grad raises, and so
  does an output with a ``_refill`` hook. ``batch_norm2d(..., relu=True)``
  gives its recorded output that hook: it writes relu(x̂·γ + β) again
  with the forward's expressions into a given array, so the forward's
  bytes (Pleiss et al. 2017, arXiv:1707.06990). A ``conv2d`` weight
  gradient keeps the hook instead of its input's array.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBatchError,
    GraphConsumedError,
    NormalizationError,
    ShapeError,
)

_FLOAT_DTYPES = (np.float32, np.float64)
BN_EPS = 1e-5  # batch norm's variance offset, also used where models fold it into a conv
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """The tape entry of an op result: its backward closure and its parents'
    entries. Backpropagation consumes it: both links are then cleared."""

    __slots__ = ("grad_fn", "parents")
    requires_grad = True

    def __init__(self, grad_fn, parents: tuple):
        self.grad_fn = grad_fn
        self.parents = parents


class Tensor:
    """Numeric array plus optional gradient accumulator and tape entry."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "_refill")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None
        self._refill = None

    @property
    def _grad_fn(self):
        """An op result's backward closure; None for a leaf or once consumed.
        Settable, so a tracer can wrap it."""
        return None if self._node is None else self._node.grad_fn

    @_grad_fn.setter
    def _grad_fn(self, fn):
        self._node.grad_fn = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # Operator sugar; scalars are python floats, tensors must match shape.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul_scalar(other, -1.0))
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(mul_scalar(self, -1.0), float(other))


def _result(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Wrap an op result, recording its tape entry only when it matters."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._refill = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out._node = (_Node(grad_fn, tuple([p._node or p for p in parents]))
                 if out.requires_grad else None)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf with ``requires_grad``.

    The graph below ``loss`` is consumed; a second call raises
    ``GraphConsumedError``. Gradient accumulation into leaves is additive
    across separate graphs. Each entry is released as soon as its gradient
    has been routed: its closure and parent links are dropped, so the
    arrays it captured are freed while the walk goes on. A consumed
    tensor keeps its ``data``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    root = loss._node or loss
    # iterative post-order walk: every entry comes after all of its parents
    order: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            order.append(entry)
            continue
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.append((entry, True))
        if isinstance(entry, _Node):
            if entry.grad_fn is None:
                raise GraphConsumedError("graph already consumed by a previous backward()")
            stack.extend((parent, False) for parent in entry.parents if id(parent) not in seen)
    grad_map = {id(root): np.ones_like(loss.data)}
    while order:
        entry = order.pop()
        g = grad_map.pop(id(entry), None)
        if g is None:
            continue
        if isinstance(entry, Tensor):
            if entry.requires_grad:
                if entry.grad is None:
                    entry.grad = np.zeros_like(entry.data)
                entry.grad += g
            continue
        parent_grads = entry.grad_fn(g)
        parents = entry.parents
        entry.grad_fn, entry.parents = None, ()
        for parent, pg in zip(parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grad_map:
                grad_map[key] = grad_map[key] + pg
            else:
                grad_map[key] = pg


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; each operand that requires grad receives its gradient.

    The closure keeps an operand's array only if the other operand requires
    grad when the forward runs: a frozen partner's gradient reads nothing of it."""
    _check_same_shape(a, b, "mul")
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _result(a.data * b.data, (a, b), lambda g: (None if bd is None else g * bd,
                                                       None if ad is None else g * ad))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _result(a.data + c, (a,), lambda g: (g,))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    return _result(a.data * c, (a,), lambda g: (g * c,))


def relu(x: Tensor, keep_mask: bool = False) -> Tensor:
    """max(x, 0), NaN where x is NaN; the subgradient at exactly 0 is 0.

    The backward's mask ``out > 0`` is read off the output, or with
    ``keep_mask`` computed in the forward and kept as one bool per element
    instead, so the output is freed with its last reference."""
    out = np.maximum(x.data, 0.0)
    if keep_mask:
        mask = out > 0
        return _result(out, (x,), lambda g: (g * mask,))
    return _result(out, (x,), lambda g: (g * (out > 0),))


def maximum_scalar(x: Tensor, c: float) -> Tensor:
    """Elementwise max(x, c), NaN where x is NaN; gradient flows only where x > c.

    The mask is read off the output: ``out > c`` is ``x > c``, NaN included.
    """
    out = np.maximum(x.data, c)
    return _result(out, (x,), lambda g: (g * (out > c),))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.data.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def tmean(x: Tensor) -> Tensor:
    """Mean of all elements, as a scalar tensor."""
    shape = x.data.shape
    n = x.data.size
    return _result(
        np.asarray(x.data.mean(), dtype=x.data.dtype),
        (x,),
        lambda g: (np.broadcast_to(g / n, shape).copy(),),
    )


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs rank-2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree for {a.data.shape} x {b.data.shape}"
        )
    # a's gradient comes in a's layout: a flattened activation is batch-innermost
    a_like = {"shape": a.data.shape, "dtype": a.data.dtype,
              "order": "F" if a.data.flags.f_contiguous else "C"}
    ad = a.data if b.requires_grad else None  # like mul, each operand's array is kept
    bd = b.data if a.requires_grad else None  # only for the other one's gradient

    def grad_fn(g):
        return (None if bd is None else np.matmul(g, bd.T, out=np.empty(**a_like)),
                None if ad is None else ad.T @ g)

    return _result(a.data @ b.data, (a, b), grad_fn)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-K vector to every row of a (B, K) tensor."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: got {x.data.shape} and {v.data.shape}")
    need_dv = v.requires_grad
    return _result(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0) if need_dv else None))


def gather_labels(x: Tensor, labels: np.ndarray) -> Tensor:
    """Pick x[b, labels[b]] for each row; returns a (B,) tensor."""
    labels = np.asarray(labels, dtype=np.int64)
    batch, k = x.data.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range [0, {k})")
    rows = np.arange(batch)
    xd = x.data

    def grad_fn(g):
        dx = np.zeros_like(xd)
        np.add.at(dx, (rows, labels), g)
        return (dx,)

    return _result(xd[rows, labels].copy(), (x,), grad_fn)


def masked_rowmax(x: Tensor, exclude_labels: np.ndarray) -> Tensor:
    """Rowwise max over columns k != label; ties resolved to the lowest index.

    The winning index is a constant of differentiation: the gradient is
    routed to the selected entry only.
    """
    labels = np.asarray(exclude_labels, dtype=np.int64)
    batch, k = x.data.shape
    if k < 2:
        raise ShapeError("masked_rowmax needs at least 2 columns")
    rows = np.arange(batch)
    xd = x.data
    masked = xd.copy()
    masked[rows, labels] = -np.inf
    winners = masked.argmax(axis=1)

    def grad_fn(g):
        dx = np.zeros_like(xd)
        np.add.at(dx, (rows, winners), g)
        return (dx,)

    return _result(masked[rows, winners].copy(), (x,), grad_fn)


def take_columns(w: Tensor, idx: np.ndarray) -> Tensor:
    """Stack columns w[:, idx[b]] into a (B, D) tensor, a view of a (D, B) array.

    The index vector is constant under differentiation; gradients scatter
    back into the selected columns additively.
    """
    idx = np.asarray(idx, dtype=np.int64)
    d, k = w.data.shape
    if idx.min() < 0 or idx.max() >= k:
        raise IndexError(f"column index out of range [0, {k})")
    dtype = w.data.dtype

    def grad_fn(g):
        dwt = np.zeros((k, d), dtype=dtype)
        np.add.at(dwt, idx, g)
        return (dwt.T.copy(),)

    return _result(w.data.take(idx, axis=1).T, (w,), grad_fn)


# ---------------------------------------------------------------------------
# convolution, pooling, normalization
# ---------------------------------------------------------------------------

_BLOCK_BYTES = 1 << 20  # most bytes a block's column matrix may hold, at least one output row


def _pad_batch_inner(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(C, H+2ph, W+2pw, B) zero-padded copy of a (B, C, H, W) array; a negative pad crops.
    Unpadded, a batch-innermost ``a`` (a conv output) gives its own buffer, only to be read."""
    if ph == pw == 0:
        return np.ascontiguousarray(a.transpose(1, 2, 3, 0))
    b, c, h, w = a.shape
    out = np.zeros((c, h + 2 * ph, w + 2 * pw, b), dtype=a.dtype)
    ch, cw, oh, ow = max(-ph, 0), max(-pw, 0), max(ph, 0), max(pw, 0)
    out[:, oh:out.shape[1] - oh, ow:out.shape[2] - ow] = (
        a[:, :, ch:h - ch, cw:w - cw].transpose(1, 2, 3, 0))
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, row0: int,
            ho: int, wo: int) -> np.ndarray:
    """(Cin·kh·kw, Ho·Wo·B) column matrix of output rows row0 .. row0+ho-1,
    read from a batch-innermost padded input (Cin, Hp, Wp, B)."""
    cin, b = xp.shape[0], xp.shape[3]
    s0, s1, s2, s3 = xp.strides
    view = np.ndarray((cin, kh, kw, ho, wo, b), xp.dtype, xp, offset=row0 * stride * s1,
                      strides=(s0, s1, s2, s1 * stride, s2 * stride, s3))
    return view.reshape(cin * kh * kw, ho * wo * b)


def _row_blocks(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int):
    """Yield (i0, i1, cols): the column matrix of output rows i0 .. i1-1, in
    blocks of as many rows as fit in ``_BLOCK_BYTES``, and at least one."""
    row_bytes = xp.shape[0] * kh * kw * wo * xp.shape[3] * xp.itemsize
    rows = max(1, _BLOCK_BYTES // row_bytes)
    for i0 in range(0, ho, rows):
        i1 = min(i0 + rows, ho)
        yield i0, i1, _im2col(xp, kh, kw, stride, i0, i1 - i0, wo)


def _correlate(wmat: np.ndarray, xp: np.ndarray, kh: int, kw: int, stride: int,
               ho: int, wo: int) -> np.ndarray:
    """(Cout, Ho, Wo, B) cross-correlation of a batch-innermost padded input
    with a (Cout, Cin·kh·kw) weight matrix, one block of output rows at a time."""
    cout = wmat.shape[0]
    out = np.empty((cout, ho, wo, xp.shape[3]), dtype=np.result_type(wmat, xp))
    for i0, i1, cols in _row_blocks(xp, kh, kw, stride, ho, wo):
        np.matmul(wmat, cols, out=out[:, i0:i1].reshape(cout, -1))
    return out


def _weight_grad(g_c: np.ndarray, xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(Cout, Cin·kh·kw) sum over row blocks of ``g_block @ cols_block.T``,
    for a (Cout, Ho, Wo, B) gradient and the forward's padded input."""
    cout, ho, wo = g_c.shape[:3]
    parts = (g_c[:, i0:i1].reshape(cout, -1) @ cols.T
             for i0, i1, cols in _row_blocks(xp, kh, kw, stride, ho, wo))
    dw = next(parts)
    for part in parts:
        dw += part
    return dw


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding.

    x: (B, Cin, H, W); weight: (Cout, Cin, kh, kw); bias: (Cout,) or None.
    Output spatial size is floor((H + 2p - kh) / stride) + 1.

    Batch-innermost: the input is copied once into a zeroed (Cin, H+2p,
    W+2p, B) buffer, or read in place when there is no padding and it is
    already batch-innermost. A strided view of a band of its rows
    reshapes to the column matrix of a block of output rows, (Cin·kh·kw,
    rows·Wo·B), and the forward is ``W(Cout, Cin·kh·kw) @ cols`` block by
    block, written into one (Cout, Ho, Wo, B) array. The result is a (B,
    Cout, Ho, Wo) view of that array, not a copy, and so is ``dx``: the
    next conv reads its input contiguously, and a gradient that comes
    back in that layout is used without a copy. A block holds as many
    output rows as fit in ``_BLOCK_BYTES``, and at least one, so no
    whole-input column matrix is ever built (Cho & Brand 2017, MEC);
    block edges depend only on shapes and dtype. With the batch axis
    innermost, every run the gather moves is at least B contiguous
    elements (Wo·B at stride 1). With the gradient as g_c = (Cout, Ho,
    Wo, B), ``dw`` is the sum over the same row blocks of
    ``g_block @ cols_block.T``. At stride 1 with Cin ≥ Cout, ``dx`` is
    itself a blocked correlation: the gradient padded by k − 1 − p
    (cropped where that is negative) correlated with the flipped,
    transposed kernel. At larger strides that would multiply zeros, and
    with Cin < Cout it would gather Cout·kh·kw rows where col2im writes
    Cin·kh·kw, so there ``dx`` is ``W.T @ g_c`` folded back by kh·kw
    slice-adds (col2im); the choice depends on shapes only. col2im takes
    one kernel row u at a time: the rows of ``W.T`` for u, a (Cin·kw,
    Cout) matrix, times g_c into one reused (Cin·kw, Ho·Wo·B) buffer,
    then its kw slice-adds, so each element still sums its (u, v) terms
    in order and the whole column gradient is never built. The closure
    keeps no array of its own but the weight, and reads the input only
    for ``dw``, if ``weight.requires_grad`` is set at forward time: it
    keeps the input's ``_refill`` hook, which writes it straight into the
    padded buffer, else ``x.data``, from which the buffer is rebuilt.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d needs rank-4 input/weight, got {x.data.shape} and {weight.data.shape}"
        )
    b, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != weight channels {cin_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {(kh, kw)} larger than padded input {(hp, wp)}")
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1

    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = _correlate(wmat, _pad_batch_inner(x.data, padding, padding), kh, kw, stride, ho, wo)
    if bias is not None:
        out += bias.data[:, None, None, None]
    out = out.transpose(3, 0, 1, 2)
    x_in = (x._refill or x.data) if weight.requires_grad else None  # what dw reads
    need_dx, need_db = x.requires_grad, bias is not None and bias.requires_grad
    col2im = stride > 1 or cin < cout

    def grad_fn(g):
        dw = db = dx = None
        if x_in is not None or need_db or (need_dx and col2im):
            g_c = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
        if x_in is not None:
            if callable(x_in):  # the producer writes the input again
                xp = np.zeros((cin, hp, wp, b), dtype=wmat.dtype)
                x_in(xp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2))
            else:
                xp = _pad_batch_inner(x_in, padding, padding)
            dw = _weight_grad(g_c, xp, kh, kw, stride).reshape(cout, cin, kh, kw)
            del xp  # freed before dx is computed
        if need_db:
            db = g_c.reshape(cout, -1).sum(axis=1)
        if need_dx and not col2im:
            wflip = wmat.reshape(cout, cin, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gp = _pad_batch_inner(g, kh - 1 - padding, kw - 1 - padding)
            dx_c = _correlate(wflip.reshape(cin, cout * kh * kw), gp, kh, kw, 1, h, w)
            dx = dx_c.transpose(3, 0, 1, 2)
        elif need_dx:
            g_mat = g_c.reshape(cout, -1)
            w_rows = wmat.reshape(cout, cin, kh, kw)
            dxp = np.zeros((cin, hp, wp, b), dtype=wmat.dtype)
            # made after dxp: once freed, the crop below reuses its memory at the heap's top
            dcols = np.empty((cin, kw, ho, wo, b), dtype=np.result_type(wmat, g_c))
            for u in range(kh):  # one kernel row of the column gradient at a time
                np.matmul(w_rows[:, :, u].reshape(cout, cin * kw).T, g_mat,
                          out=dcols.reshape(cin * kw, -1))
                for v in range(kw):
                    dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += dcols[:, v]
            del dcols  # freed before the crop is copied
            dx = np.ascontiguousarray(
                dxp[:, padding:padding + h, padding:padding + w]).transpose(3, 0, 1, 2)
        return (dx, dw) if bias is None else (dx, dw, db)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C) spatial mean."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool needs rank-4 input, got {x.data.shape}")
    b, c, h, w = x.data.shape

    def grad_fn(g):  # batch-innermost, like the activation it flows back into
        gc = np.broadcast_to((g.T / (h * w))[:, None, None, :], (c, h, w, b))
        return (gc.copy().transpose(3, 0, 1, 2),)

    return _result(x.data.mean(axis=(2, 3)), (x,), grad_fn)


@dataclass
class RunningStats:
    """Per-channel running mean/variance owned by a batch-norm layer."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, channels: int, dtype=np.float64) -> "RunningStats":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
                 training: bool, relu: bool = False, inplace: bool = False) -> Tensor:
    """Channelwise batch normalization over a (B, C, H, W) tensor, followed by
    max(·, 0) with ``relu``.

    The variance offset is ``BN_EPS``, the one the models' eval fold uses.
    Training mode normalizes by batch statistics (biased variance) and
    updates ``stats`` in place with momentum 0.1 (variance stored
    unbiased). Eval mode normalizes by ``stats`` and leaves them alone.
    Besides per-channel numbers the closure keeps one array, and only if
    its backward reads x̂: with ``inplace`` the normalized input ``xhat``
    is written into ``x.data`` and read there; without, the backward
    recomputes it from ``x.data`` with the forward's expression. Either way
    it gets the same bits. With ``relu`` the backward's mask is
    ``xhat·gamma + beta > 0``, not a read of the output, and a recorded
    output gets a ``_refill`` hook that writes its bytes again, so a
    conv's weight gradient need not keep it.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d needs rank-4 input, got {x.data.shape}")
    if inplace and x.requires_grad and x._node is None:
        raise ValueError("batch_norm2d(inplace=True) would overwrite a leaf that requires grad")
    if inplace and x._refill is not None:
        raise ValueError("batch_norm2d(inplace=True) would overwrite an output its producer "
                         "refills")
    b, c, h, w = x.data.shape
    n = b * h * w
    gd = gamma.data.reshape(1, c, 1, 1)
    bd = beta.data.reshape(1, c, 1, 1)
    dst = x.data if inplace else None

    if training:
        if b < 2:
            raise DegenerateBatchError(
                f"batch norm in train mode needs batch >= 2, got {b}"
            )
        mean = x.data.mean(axis=(0, 2, 3))
        centered = np.subtract(x.data, mean.reshape(1, c, 1, 1), out=dst)
        var = (centered * centered).mean(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        stats.mean += 0.1 * (mean - stats.mean)
        stats.var += 0.1 * (var * n / (n - 1) - stats.var)
    else:
        mean = stats.mean.copy()  # a later train-mode forward updates stats in place
        inv_std = 1.0 / np.sqrt(stats.var + BN_EPS)
        centered = np.subtract(x.data, mean.reshape(1, c, 1, 1), out=dst)
    ivs = inv_std.reshape(1, c, 1, 1)
    out = np.multiply(centered, ivs, out=dst) * gd + bd
    if relu:
        np.maximum(out, 0.0, out=out)

    need_dx, need_dgamma, need_dbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    xd = x.data if relu or need_dgamma or (training and need_dx) else None

    def xhat():
        return xd if inplace else (xd - mean.reshape(1, c, 1, 1)) * ivs

    def grad_fn(g):
        xh = None if xd is None else xhat()
        if relu:
            g = g * (xh * gd + bd > 0)
        dgamma = (g * xh).sum(axis=(0, 2, 3)) if need_dgamma else None
        dbeta = g.sum(axis=(0, 2, 3)) if need_dbeta else None
        dx = None
        if need_dx and training:
            dxhat = g * gd
            sum_dxhat = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            sum_dxhat_xhat = (dxhat * xh).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dx = (ivs / n) * (n * dxhat - sum_dxhat - xh * sum_dxhat_xhat)
        elif need_dx:
            dx = g * gd * ivs
        return (dx, dgamma, dbeta)

    result = _result(out, (x, gamma, beta), grad_fn)
    if relu and result.requires_grad:
        def refill(dst):  # the forward's expressions, so the forward's bits
            np.multiply(xhat(), gd, out=dst)
            np.add(dst, bd, out=dst)
            np.maximum(dst, 0.0, out=dst)

        result._refill = refill
    return result


# ---------------------------------------------------------------------------
# classification losses
# ---------------------------------------------------------------------------

def _check_labels(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-d index array, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise IndexError(f"label out of range [0, {k})")
    return labels


def softmax(x: Tensor) -> Tensor:
    """Rowwise softmax of a (B, K) tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax needs a (B, K) tensor, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return _result(s, (x,), grad_fn)


def softmax_cross_entropy(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    """-log softmax(logits)[label] per row, max-stabilized.

    ``reduction="none"`` returns the (B,) per-row losses; the default
    returns their batch mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs (B, K) logits, got {logits.data.shape}")
    if reduction not in ("mean", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    b, k = logits.data.shape
    labels = _check_labels(labels, k)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(b)
    loss = lse - z[rows, labels]

    def grad_fn(g):
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1.0
        return (p * ((g / b) if reduction == "mean" else g[:, None]),)

    if reduction == "mean":
        loss = np.asarray(loss.mean(), dtype=logits.data.dtype)
    return _result(loss, (logits,), grad_fn)


def _check_prob_rows(p: np.ndarray, what: str) -> None:
    if np.any(p < 0):
        raise NormalizationError(f"{what} has negative entries")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
        raise NormalizationError(f"{what} rows do not sum to 1 within 1e-6")


def kl_divergence(p_ref: Tensor, q: Tensor, reduction: str = "mean") -> Tensor:
    """KL(p_ref || q) over probability rows, with 0 log 0 = 0.

    ``q`` is clamped below at 1e-12 before the log. ``reduction="none"``
    returns the per-row divergence (used for per-sample weighting in the
    misclassification-aware loss); the default returns the batch mean.
    Gradient flows into both arguments.
    """
    _check_same_shape(p_ref, q, "kl_divergence")
    if p_ref.data.ndim != 2:
        raise ShapeError(f"kl_divergence needs (B, K) tensors, got {p_ref.data.shape}")
    if reduction not in ("mean", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    _check_prob_rows(p_ref.data, "p_ref")
    _check_prob_rows(q.data, "q")
    b = p_ref.data.shape[0]
    pd = p_ref.data
    q_safe = np.maximum(q.data, 1e-12)
    log_p = np.log(np.where(pd > 0, pd, 1.0))
    log_q = np.log(q_safe)
    terms = pd * (log_p - log_q)
    rowkl = terms.sum(axis=1)

    qd = q.data

    def grad_fn(g):
        w = (g / b) if reduction == "mean" else g[:, None]
        dp = np.where(pd > 0, log_p - log_q + 1.0, 0.0) * w
        dq = np.where(qd > 1e-12, -pd / q_safe, 0.0) * w
        return (dp, dq)

    if reduction == "mean":
        out = np.asarray(rowkl.mean(), dtype=pd.dtype)
    else:
        out = rowkl
    return _result(out, (p_ref, q), grad_fn)


def boosted_cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean of -log p_y - log(1 - max_{k != y} p_k) over probability rows.

    Probabilities are clamped to [1e-12, 1 - 1e-12]; the runner-up index
    is a constant of differentiation.
    """
    if probs.data.ndim != 2:
        raise ShapeError(f"boosted_cross_entropy needs (B, K) probs, got {probs.data.shape}")
    b, k = probs.data.shape
    labels = _check_labels(labels, k)
    _check_prob_rows(probs.data, "probs")
    lo, hi = 1e-12, 1.0 - 1e-12
    pd = probs.data
    p = np.clip(pd, lo, hi)
    rows = np.arange(b)
    masked = p.copy()
    masked[rows, labels] = -np.inf
    runner = masked.argmax(axis=1)
    loss_rows = -np.log(p[rows, labels]) - np.log(1.0 - p[rows, runner])
    loss = np.asarray(loss_rows.mean(), dtype=p.dtype)

    def grad_fn(g):
        interior = (pd > lo) & (pd < hi)
        dp = np.zeros_like(pd)
        dp[rows, labels] = -1.0 / p[rows, labels]
        dp[rows, runner] += 1.0 / (1.0 - p[rows, runner])
        return (dp * interior * (g / b),)

    return _result(loss, (probs,), grad_fn)
