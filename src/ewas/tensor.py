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
  node by node as it goes,
* no backward closure keeps a copy of an activation: ``conv2d``,
  ``batch_norm2d``, ``relu`` and ``maximum_scalar`` recompute what they
  need from their operands' ``data`` or their own output (Chen et al.
  2016, arXiv:1604.06174); only the (B, K) loss ops keep intermediates,
* ``relu`` reads its mask ``out > 0`` off its output, or with
  ``keep_mask=True`` keeps that mask itself, one bool per element, so its
  output may be dropped; ``mul`` and ``matmul`` keep an operand's array
  only if the other operand requires grad when the forward runs,
* ``relu(x, inplace=True)``, ``add(a, b, inplace=True)`` and
  ``batch_norm2d(x, ..., inplace=True)`` write into the first operand's
  ``data``: the ReLU and the sum their result, batch norm the normalized
  input x̂, which its backward then reads there instead of recomputing
  it. That is legal only when the operand is a fresh op result whose
  producer's backward does not read its own output (``batch_norm2d``,
  ``conv2d``, ``add``), and nothing else reads the operand afterwards; a
  leaf that requires grad (a parameter, an attack input) raises, and so
  does an output with a ``_refill`` hook,
* ``data is None`` marks an op result dropped by its owner after its last
  forward reader. A drop is legal only where no backward reads the
  result's ``data``, neither its producer's (``batch_norm2d``,
  ``conv2d``, ``relu`` with ``keep_mask``) nor its readers' (``add``,
  ``reshape``, ``mul`` or ``matmul`` with a partner that gets no
  gradient), or where the only backward that does, ``conv2d``'s weight
  gradient, can have it written again:
  ``batch_norm2d(..., relu=True)`` gives its recorded output a private
  ``_refill`` hook that recomputes relu(x̂·γ + β) with the forward's
  expressions into a given array, so it writes the bytes the forward
  produced (Pleiss et al. 2017, arXiv:1707.06990). A dropped result has
  no ``shape``; ``backward`` clears the hook with the closure.
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


class Tensor:
    """Numeric array plus optional gradient accumulator and tape links."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_consumed",
                 "_refill")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._grad_fn = None
        self._consumed = False
        self._refill = None

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
    """Wrap an op result, recording the tape edge only when it matters."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._consumed = False
    out._refill = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf with ``requires_grad``.

    The graph below ``loss`` is consumed; a second call raises
    ``GraphConsumedError``. Gradient accumulation into leaves is additive
    across separate graphs. Each node is released as soon as its gradient
    has been routed: its closure and parent links are dropped, so the
    activations it held are freed while the walk goes on. A consumed
    tensor keeps its ``data``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    # iterative post-order walk: every node comes after all of its parents
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._consumed:
            raise GraphConsumedError("graph already consumed by a previous backward()")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    grad_map = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grad_map.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            continue
        node._consumed = True
        parent_grads = node._grad_fn(g)
        parents = node._parents
        node._grad_fn, node._parents, node._refill = None, (), None
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

def _check_inplace(x: Tensor, op: str) -> None:
    """An in-place op may not overwrite a parameter, an attack input, or an
    output whose producer may be asked to write it again."""
    if x.requires_grad and x._grad_fn is None:
        raise ValueError(f"{op}(inplace=True) would overwrite a leaf that requires grad")
    if x._refill is not None:
        raise ValueError(f"{op}(inplace=True) would overwrite an output its producer refills")


def add(a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
    """a + b; with ``inplace`` the sum is written into ``a.data``."""
    _check_same_shape(a, b, "add")
    if inplace:
        _check_inplace(a, "add")
        out = np.add(a.data, b.data, out=a.data)
    else:
        out = a.data + b.data
    return _result(out, (a, b), lambda g: (g, g))


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


def relu(x: Tensor, inplace: bool = False, keep_mask: bool = False) -> Tensor:
    """max(x, 0), NaN where x is NaN; the subgradient at exactly 0 is 0.

    With ``inplace`` the result is written into ``x.data``. The backward's
    mask ``out > 0`` is read off the output, or with ``keep_mask`` computed
    in the forward and kept as one bool per element instead, so the owner
    may drop the output's ``data``."""
    if inplace:
        _check_inplace(x, "relu")
    out = np.maximum(x.data, 0.0, out=x.data if inplace else None)
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
    return _result(x.data + v.data, (x, v),
                   lambda g: (g, g.sum(axis=0) if v.requires_grad else None))


def gather_labels(x: Tensor, labels: np.ndarray) -> Tensor:
    """Pick x[b, labels[b]] for each row; returns a (B,) tensor."""
    labels = np.asarray(labels, dtype=np.int64)
    batch, k = x.data.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range [0, {k})")
    rows = np.arange(batch)

    def grad_fn(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (rows, labels), g)
        return (dx,)

    return _result(x.data[rows, labels].copy(), (x,), grad_fn)


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
    masked = x.data.copy()
    masked[rows, labels] = -np.inf
    winners = masked.argmax(axis=1)

    def grad_fn(g):
        dx = np.zeros_like(x.data)
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

    def grad_fn(g):
        dwt = np.zeros((k, d), dtype=w.data.dtype)
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
    keeps no array of its own: for ``dw`` the backward rebuilds the padded
    buffer from ``x.data``, which the graph holds anyway, or has a dropped
    input's ``_refill`` hook write it straight into that buffer, and only
    if ``weight.requires_grad`` was set at forward time. Neither gradient
    reads ``x.data`` otherwise.
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
    need_dw = weight.requires_grad  # frozen_params may flip it before backward
    col2im = stride > 1 or cin < cout

    def grad_fn(g):
        dw = db = dx = None
        need_db = bias is not None and bias.requires_grad
        if need_dw or need_db or (x.requires_grad and col2im):
            g_c = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
        if need_dw:
            if x.data is None:  # dropped after the forward: its producer writes it again
                xp = np.zeros((cin, hp, wp, b), dtype=wmat.dtype)
                x._refill(xp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2))
            else:
                xp = _pad_batch_inner(x.data, padding, padding)
            dw = _weight_grad(g_c, xp, kh, kw, stride).reshape(cout, cin, kh, kw)
            del xp  # freed before dx is computed
        if need_db:
            db = g_c.reshape(cout, -1).sum(axis=1)
        if x.requires_grad and not col2im:
            wflip = wmat.reshape(cout, cin, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gp = _pad_batch_inner(g, kh - 1 - padding, kw - 1 - padding)
            dx_c = _correlate(wflip.reshape(cin, cout * kh * kw), gp, kh, kw, 1, h, w)
            dx = dx_c.transpose(3, 0, 1, 2)
        elif x.requires_grad:
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
    The closure keeps only the per-channel mean and inverse standard
    deviation. With ``inplace`` the normalized input ``xhat`` is written
    into ``x.data`` and the backward reads it there; without, the backward
    recomputes it from ``x.data`` with the forward's expression. Either way
    it gets the same bits. With ``relu`` the backward's mask is
    ``xhat·gamma + beta > 0``, not a read of the output, and a recorded
    output gets a ``_refill`` hook that writes its bytes again, so its
    owner may drop its ``data``.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d needs rank-4 input, got {x.data.shape}")
    if inplace:
        _check_inplace(x, "batch_norm2d")
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

    def xhat():
        return x.data if inplace else (x.data - mean.reshape(1, c, 1, 1)) * ivs

    def grad_fn(g):
        need_xhat = relu or gamma.requires_grad or (training and x.requires_grad)
        xh = xhat() if need_xhat else None
        if relu:
            g = g * (xh * gd + bd > 0)
        dgamma = (g * xh).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        dbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        dx = None
        if x.requires_grad and training:
            dxhat = g * gd
            sum_dxhat = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            sum_dxhat_xhat = (dxhat * xh).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dx = (ivs / n) * (n * dxhat - sum_dxhat - xh * sum_dxhat_xhat)
        elif x.requires_grad:
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

    def grad_fn(g):
        w = (g / b) if reduction == "mean" else g[:, None]
        dp = np.where(pd > 0, log_p - log_q + 1.0, 0.0) * w
        dq = np.where(q.data > 1e-12, -pd / q_safe, 0.0) * w
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
    p = np.clip(probs.data, lo, hi)
    rows = np.arange(b)
    masked = p.copy()
    masked[rows, labels] = -np.inf
    runner = masked.argmax(axis=1)
    loss_rows = -np.log(p[rows, labels]) - np.log(1.0 - p[rows, runner])
    loss = np.asarray(loss_rows.mean(), dtype=p.dtype)

    def grad_fn(g):
        interior = (probs.data > lo) & (probs.data < hi)
        dp = np.zeros_like(probs.data)
        dp[rows, labels] = -1.0 / p[rows, labels]
        dp[rows, runner] += 1.0 / (1.0 - p[rows, runner])
        return (dp * interior * (g / b),)

    return _result(loss, (probs,), grad_fn)
