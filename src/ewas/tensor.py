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
  array; elementwise ops, batch norm and the scaling product keep that
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
  it. No op writes its operand; eval-mode ReLUs keep a bool mask (the
  models pass ``keep_mask=True``). ``conv2d`` reads its input only for a
  weight gradient, ``relu`` its output (or with ``keep_mask=True`` the
  bool mask ``out > 0``, one byte per element, built only when its
  result is recorded), ``batch_norm2d`` the normalized input x̂, which it
  computes into a buffer of its own; ``add``, ``reshape`` and the pool
  read nothing of an activation, ``mul`` and ``matmul`` keep an
  operand's array only if the other operand requires grad when the
  forward runs, and ``take_columns`` keeps z's array only for a weight
  gradient and gathers w's columns again for z's. No closure keeps a
  copy of an activation or a selected mask: only the (B, K) loss ops
  keep intermediates (Chen et al. 2016, arXiv:1604.06174),
* ``batch_norm2d(..., relu=True)`` gives its recorded output a
  ``_refill`` hook: it writes relu(x̂·γ + β) again from the kept x̂ with
  the forward's expressions into a given array, so the forward's bytes
  (Pleiss et al. 2017, arXiv:1707.06990). A ``conv2d`` weight gradient
  keeps the hook instead of its input's array.
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


def _check_labels(labels, b: int, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":  # bool too; numpy's error for such an index
        raise IndexError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.shape != (b,):
        raise ShapeError(f"labels must have shape ({b},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise IndexError(f"label out of range [0, {k})")
    return labels


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
    ``keep_mask`` computed in the forward, if the result is recorded, and
    kept as one bool per element instead, so the output is freed with its
    last reference."""
    out = np.maximum(x.data, 0.0)
    if keep_mask and _grad_enabled and x.requires_grad:
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
    batch, k = x.data.shape
    labels = _check_labels(labels, batch, k)
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
    batch, k = x.data.shape
    if k < 2:
        raise ShapeError("masked_rowmax needs at least 2 columns")
    labels = _check_labels(exclude_labels, batch, k)
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


def take_columns(z: Tensor, w: Tensor, idx: np.ndarray) -> Tensor:
    """z[b] * w[:, idx[b]] reformatted to z[b]'s shape, gathered batch-innermost.

    The index vector is constant under differentiation: the backward
    gathers the columns again for z's gradient and scatters g·z into them,
    additively, for w's."""
    shape, (d, k) = z.data.shape, w.data.shape
    b = shape[0]
    idx = _check_labels(idx, b, k)
    wd, zd = w.data, (z.data if w.requires_grad else None)

    def grad_fn(g):
        dz = g * wd.take(idx, axis=1).T.reshape(shape)
        if zd is None:
            return dz, None
        dwt = np.zeros((k, d), dtype=wd.dtype)
        np.add.at(dwt, idx, (g * zd).reshape(b, d))
        return dz, dwt.T.copy()

    return _result(z.data * wd.take(idx, axis=1).T.reshape(shape), (z, w), grad_fn)


# ---------------------------------------------------------------------------
# convolution, pooling, normalization
# ---------------------------------------------------------------------------

_BLOCK_BYTES = 1 << 20  # the fewest bytes a band is allowed, however small its padded input


def _band_rows(row_bytes: int, padded_bytes: int, kh: int, stride: int) -> int:
    """Output rows per band: at least one, else all a band of max(padded, _BLOCK_BYTES) holds."""
    return max(1, (max(padded_bytes, _BLOCK_BYTES) // row_bytes - kh) // stride + 1)


def _bands(a: np.ndarray, ph: int, pw: int, kh: int, kw: int, stride: int,
           ho: int, wo: int):
    """Yield (i0, i1, windows) for bands of output rows i0 .. i1-1 of a
    (C, H, W, B) input zero-padded by ph, pw (a negative pad crops).

    A band is lowered along its width, low[r, v, c, j, b] = xpad[c, r0 + r,
    stride·j + v, b], straight from ``a`` with zeros only in the padding.
    ``windows`` is a read-only (rows, kh·kw·C, Wo·B) view whose row i is
    the contiguous low[stride·i : stride·i + kh], in K order (u, v, c).
    One buffer serves every band: a view is valid until the next one."""
    c, h, w, b = a.shape
    padded = c * (h + 2 * ph) * (w + 2 * pw) * b * a.itemsize
    rows = min(ho, _band_rows(kw * c * wo * b * a.itemsize, padded, kh, stride))
    alloc = np.zeros if ph > 0 or pw > 0 else np.empty  # unpadded, every element is data
    low = alloc((stride * (rows - 1) + kh, kw, c, wo, b), dtype=a.dtype)
    for i0 in range(0, ho, rows):
        i1 = min(i0 + rows, ho)
        r0, nr = stride * i0, stride * (i1 - i0 - 1) + kh
        y0, y1 = max(r0 - ph, 0), min(r0 + nr - ph, h)  # the input rows the band reads
        top = y0 + ph - r0
        bottom = max(top, y1 + ph - r0)
        for v in range(kw):  # output columns j0 .. j1-1 read input columns x0, x0 + stride, ..
            j0, j1 = max(0, -((v - pw) // stride)), min(wo, (w - 1 + pw - v) // stride + 1)
            if j1 > j0:
                x0 = stride * j0 + v - pw
                low[top:bottom, v, :, j0:j1] = (
                    a[:, y0:y1, x0:x0 + stride * (j1 - j0):stride].transpose(1, 0, 2, 3))
        if bottom < nr:  # rows below the input, which an earlier band may have filled
            low[bottom:nr] = 0
        windows = np.ndarray((i1 - i0, kh * kw * c, wo * b), low.dtype, low,
                             strides=(stride * low.strides[0], low.strides[2], low.itemsize))
        windows.flags.writeable = False  # its rows overlap
        yield i0, i1, windows


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding.

    x: (B, Cin, H, W); weight: (Cout, Cin, kh, kw); bias: (Cout,) or None.
    Output spatial size is floor((H + 2p - kh) / stride) + 1.

    Batch-innermost and lowered along the width (Cho & Brand 2017, MEC):
    ``_bands`` copies the (Cin, H, W, B) input into kw width-shifted
    copies, a band buffer (rows, kw, Cin, Wo, B) with zeros only where the
    padding falls, so no padded copy is made. Output row i reads the
    contiguous (kh·kw·Cin, Wo·B) matrix of its kh input rows, and one
    stacked ``np.matmul`` with the weight in K order (u, v, c) fills a
    band's rows of one (Cout, Ho, Wo, B) array. The result is a (B, Cout,
    Ho, Wo) view of that array, not a copy, and so is ``dx``. A band holds
    at most max(the padded input's bytes, ``_BLOCK_BYTES``) and at least
    one output row. Each output row is its own GEMM, and ``dw`` adds the
    per-row products ``g_i @ windows_i.T`` in row order, so band edges
    change no bit. At stride 1 with Cin ≥ Cout, ``dx`` is the gradient,
    padded by k − 1 − p (cropped where that is negative), correlated the
    same way with the flipped, transposed kernel. Otherwise that would
    multiply zeros or lower Cout·kh·kw rows where col2im writes Cin·kh·kw,
    so ``dx`` is col2im: for each kernel row u, the (Cin·kw, Cout) rows of
    ``W.T`` times g_c into one reused (Cin·kw, Ho·Wo·B) buffer, then kw
    slice-adds, so each element sums its (u, v) terms in order. The
    closure keeps no array of its own but the weight, and reads the input
    only for ``dw``, if ``weight.requires_grad`` is set at forward time:
    it keeps the input's ``_refill`` hook, which writes it into an
    unpadded (Cin, H, W, B) buffer, else ``x.data``.
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

    wd = weight.data
    out = np.empty((cout, ho, wo, b), dtype=np.result_type(wd, x.data))
    out_rows = out.reshape(cout, ho, -1).transpose(1, 0, 2)
    wmat = wd.transpose(0, 2, 3, 1).reshape(cout, -1)
    for i0, i1, windows in _bands(x.data.transpose(1, 2, 3, 0), padding, padding,
                                  kh, kw, stride, ho, wo):
        np.matmul(wmat, windows, out=out_rows[i0:i1])
    if bias is not None:
        out += bias.data[:, None, None, None]
    out = out.transpose(3, 0, 1, 2)
    x_in = (x._refill or x.data) if weight.requires_grad else None  # what dw reads
    need_dx, need_db = x.requires_grad, bias is not None and bias.requires_grad
    col2im = stride > 1 or cin < cout

    def grad_fn(g):
        dw = db = dx = None
        g_c = np.ascontiguousarray(g.transpose(1, 2, 3, 0))  # a view of a batch-innermost g
        if x_in is not None:
            if callable(x_in):  # the producer writes the input again
                xc = np.empty((cin, h, w, b), dtype=wd.dtype)
                x_in(xc.transpose(3, 0, 1, 2))
            else:
                xc = x_in.transpose(1, 2, 3, 0)
            dw_k = np.zeros((cout, kh * kw * cin), dtype=np.result_type(wd, g_c))
            part = np.empty_like(dw_k)
            for i0, _, windows in _bands(xc, padding, padding, kh, kw, stride, ho, wo):
                for i, window in enumerate(windows, i0):  # in row order, whatever the bands
                    dw_k += np.matmul(g_c[:, i].reshape(cout, -1), window.T, out=part)
            del xc, windows, window, part  # freed before dx is computed
            dw = np.ascontiguousarray(dw_k.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        if need_db:
            db = g_c.reshape(cout, -1).sum(axis=1)
        if need_dx and not col2im:
            wflip = wd[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(cin, -1)
            dx_c = np.empty((cin, h, w, b), dtype=np.result_type(wd, g_c))
            dx_rows = dx_c.reshape(cin, h, -1).transpose(1, 0, 2)
            for i0, i1, windows in _bands(g_c, kh - 1 - padding, kw - 1 - padding,
                                          kh, kw, 1, h, w):
                np.matmul(wflip, windows, out=dx_rows[i0:i1])
            dx = dx_c.transpose(3, 0, 1, 2)
        elif need_dx:
            g_mat = g_c.reshape(cout, -1)
            dxp = np.zeros((cin, hp, wp, b), dtype=wd.dtype)
            # made after dxp: once freed, the crop below reuses its memory at the heap's top
            dcols = np.empty((cin, kw, ho, wo, b), dtype=np.result_type(wd, g_c))
            for u in range(kh):  # one kernel row of the column gradient at a time
                np.matmul(wd[:, :, u].reshape(cout, cin * kw).T, g_mat,
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
                 training: bool, relu: bool = False) -> Tensor:
    """Channelwise batch normalization over a (B, C, H, W) tensor, followed by
    max(·, 0) with ``relu``.

    The variance offset is ``BN_EPS``, the one the models' eval fold uses.
    Training mode normalizes by batch statistics (biased variance) and
    updates ``stats`` in place with momentum 0.1 (variance stored
    unbiased). Eval mode normalizes by ``stats`` and leaves them alone.
    It computes on (C, H, W, B) arrays, a view of a batch-innermost
    operand, and returns (B, C, H, W) views of them. Per-channel sums and
    dot products reduce the rows of (C, H·W·B) views, so the variance
    needs no squared temporary. x̂ goes into a buffer of its own, never
    into ``x.data``, and the closure keeps it only if its backward reads
    it. The train-mode backward takes dβ = Σ g and dγ = Σ g·x̂ first; as
    Σ dx̂ = γ·dβ and Σ dx̂·x̂ = γ·dγ, dx = a·g + b·x̂ + c per channel. With
    ``relu`` the backward's mask is the forward's ``xhat·gamma + beta``
    compared with 0, and a recorded output gets a ``_refill`` hook that
    writes its bytes again, so a conv's weight gradient need not keep it.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d needs rank-4 input, got {x.data.shape}")
    b, c, h, w = x.data.shape
    n = b * h * w
    gd, bd = gamma.data.reshape(c, 1, 1, 1), beta.data.reshape(c, 1, 1, 1)

    def dot(p, q):  # per-channel sums of p·q over (C, H, W, B) arrays
        return np.einsum("ij,ij->i", p.reshape(c, n), q.reshape(c, n))

    xc = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))
    if training:
        if b < 2:
            raise DegenerateBatchError(f"batch norm in train mode needs batch >= 2, got {b}")
        mean = xc.reshape(c, n).mean(axis=1)
        xhat = xc - mean.reshape(c, 1, 1, 1)  # centered here, normalized below
        var = dot(xhat, xhat) / n
        stats.mean += 0.1 * (mean - stats.mean)
        stats.var += 0.1 * (var * n / (n - 1) - stats.var)
    else:
        var = stats.var
        xhat = xc - stats.mean.reshape(c, 1, 1, 1)
    ivs = (1.0 / np.sqrt(var + BN_EPS)).reshape(c, 1, 1, 1)
    xhat *= ivs
    out = xhat * gd
    out += bd
    if relu:
        np.maximum(out, 0.0, out=out)

    need_dx, need_dgamma, need_dbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    xh = xhat if relu or need_dgamma or (training and need_dx) else None

    def grad_fn(g):
        g = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
        if relu:
            pre = xh * gd  # the forward's expressions, so the forward's mask
            pre += bd
            g = np.multiply(g, pre > 0, out=pre)
        sums = training and need_dx
        dbeta = g.reshape(c, n).sum(axis=1) if need_dbeta or sums else None
        dgamma = dot(g, xh) if need_dgamma or sums else None
        dx = g * (a := gd * ivs) if need_dx else None
        if sums:
            dx -= xh * (a * dgamma.reshape(c, 1, 1, 1) / n)
            dx -= a * dbeta.reshape(c, 1, 1, 1) / n
        return (None if dx is None else dx.transpose(3, 0, 1, 2),
                dgamma if need_dgamma else None, dbeta if need_dbeta else None)

    result = _result(out.transpose(3, 0, 1, 2), (x, gamma, beta), grad_fn)
    if relu and result.requires_grad:
        def refill(dst):  # the forward's expressions, so the forward's bits
            dst = dst.transpose(1, 2, 3, 0)
            np.multiply(xh, gd, out=dst)
            np.add(dst, bd, out=dst)
            np.maximum(dst, 0.0, out=dst)

        result._refill = refill
    return result


# ---------------------------------------------------------------------------
# classification losses
# ---------------------------------------------------------------------------

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
    labels = _check_labels(labels, b, k)
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
    labels = _check_labels(labels, b, k)
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
