"""Tensor engine: op semantics, gradients vs finite differences, graph rules."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewas import tensor as T
from ewas.errors import (
    DegenerateBatchError,
    GraphConsumedError,
    NormalizationError,
    ShapeError,
)

from _gradcheck import assert_grad_matches, tsum


def t(data, rg=True):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        loss = tsum(T.matmul(a, b))
        T.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)
        # and against the independent finite-difference oracle
        def loss_fn():
            return float((a.data @ b.data).sum())
        assert_grad_matches(loss_fn, a.data, a.grad, what="matmul/a")
        assert_grad_matches(loss_fn, b.data, b.grad, what="matmul/b")


@pytest.mark.parametrize("op,w_shape", [(T.matmul, (4, 2)), (T.mul, (3, 4)),
                                        (T.add_rowvec, (4,))],
                         ids=["matmul", "mul", "add_rowvec"])
def test_frozen_operand_gets_no_gradient_computed(op, w_shape):
    """A parent without requires_grad gets None; the input gradient is unchanged."""
    rng = np.random.default_rng(1)
    x_data, w_data = rng.normal(size=(3, 4)), rng.normal(size=w_shape)
    g = rng.normal(size=op(t(x_data), t(w_data)).data.shape)
    live = op(t(x_data), t(w_data))._grad_fn(g)
    frozen = op(t(x_data), t(w_data, rg=False))._grad_fn(g)
    assert live[1] is not None and frozen[1] is None
    assert frozen[0].tobytes() == live[0].tobytes()


class TestConv2d:
    def test_identity_kernel(self):
        x = t(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        w = t(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        x = t(np.zeros((1, 1, 4, 4)))
        w = t(np.random.default_rng(1).normal(size=(2, 1, 3, 3)))
        b = t(np.array([0.5, -1.5]))
        out = T.conv2d(x, w, b, stride=1, padding=1)
        np.testing.assert_array_equal(out.data[0, 0], np.full((4, 4), 0.5))
        np.testing.assert_array_equal(out.data[0, 1], np.full((4, 4), -1.5))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError, match="kernel"):
            T.conv2d(t(np.zeros((1, 1, 3, 3))), t(np.zeros((1, 1, 5, 5))))

    @staticmethod
    def direct_conv(x, w, b, stride, padding):
        """Brute-force oracle: explicit loops over every output element."""
        bs, cin, h, wd = x.shape
        cout, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (wd + 2 * padding - kw) // stride + 1
        out = np.zeros((bs, cout, ho, wo))
        for n in range(bs):
            for o in range(cout):
                for i in range(ho):
                    for j in range(wo):
                        acc = 0.0
                        for c in range(cin):
                            for u in range(kh):
                                for v in range(kw):
                                    acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                        out[n, o, i, j] = acc + (b[o] if b is not None else 0.0)
        return out

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_matches_direct_convolution(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(2, 3, 2, 2))
        b = rng.normal(size=2)
        out = T.conv2d(t(x), t(w), t(b), stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, self.direct_conv(x, w, b, stride, padding), rtol=1e-12
        )

    def test_gradients_vs_fd(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(1, 1, 4, 4)))
        w = t(rng.normal(size=(1, 1, 2, 2)))
        b = t(rng.normal(size=1))
        coef = rng.normal(size=(1, 1, 2, 2))  # random projection to scalar

        def forward():
            out = T.conv2d(x, w, b, stride=2)
            return tsum(T.mul(out, T.Tensor(coef)))

        loss = forward()
        T.backward(loss)
        def loss_fn():
            return float(forward().data)
        assert_grad_matches(loss_fn, x.data, x.grad, what="conv/x")
        assert_grad_matches(loss_fn, w.data, w.grad, what="conv/w")
        assert_grad_matches(loss_fn, b.data, b.grad, what="conv/b")


def loop_conv_reference(x, w, b, g, stride, padding):
    """Loop oracle in float64: output, dx, dw and db for upstream gradient g.

    Walks every output position (i, j); each receptive field contributes
    its dot products to the output and its outer products to the gradients.
    """
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    bs, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = g.shape[2:]
    xp = np.zeros((bs, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((bs, cout, ho, wo))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            field = xp[:, :, rows, cols]                    # (B, Cin, kh, kw)
            out[:, :, i, j] = np.einsum("ncuv,ocuv->no", field, w) + b
            dxp[:, :, rows, cols] += np.einsum("no,ocuv->ncuv", g[:, :, i, j], w)
            dw += np.einsum("no,ncuv->ocuv", g[:, :, i, j], field)
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


CONV_CASES = [
    # (B, Cin, H, W, Cout, k, stride, padding); H and W are odd or
    # non-square, so (H + 2p - k) is not always divisible by the stride;
    # batch 5 catches a kernel that mixes the batch axis with a spatial
    # one, which batches of 1 and 2 can miss. Cin < Cout takes col2im for
    # dx at every stride; Cin > Cout takes the correlation at stride 1.
    (b, cin, h, w, cout, k, s, p)
    for (cin, cout) in [(3, 4), (4, 3)]
    for (b, h, w) in [(2, 7, 6), (1, 5, 8), (5, 9, 4)]
    for k in (1, 3) for s in (1, 2) for p in (0, 1)
]


def batch_innermost(a: np.ndarray) -> bool:
    """A (B, C, H, W) array is a view of a C-contiguous (C, H, W, B) one."""
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def as_batch_innermost(a: np.ndarray) -> np.ndarray:
    """The same (B, C, H, W) values, laid out as a (C, H, W, B) array."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def check_against_loop_reference(case, dtype, tol):
    """conv2d's output and gradients for one CONV_CASES case, against the loop oracle."""
    bs, cin, h, w, cout, k, s, p = case
    rng = np.random.default_rng(sum(case))
    x = T.Tensor(rng.normal(size=(bs, cin, h, w)).astype(dtype), requires_grad=True)
    wt = T.Tensor(rng.normal(size=(cout, cin, k, k)).astype(dtype), requires_grad=True)
    bt = T.Tensor(rng.normal(size=cout).astype(dtype), requires_grad=True)
    x_before = x.data.copy()
    out = T.conv2d(x, wt, bt, stride=s, padding=p)
    assert out.data.dtype == dtype and batch_innermost(out.data)
    g = rng.normal(size=out.data.shape).astype(dtype)
    T.backward(tsum(T.mul(out, T.Tensor(g))))
    assert x.data.tobytes() == x_before.tobytes()
    ref = loop_conv_reference(x.data, wt.data, bt.data, g, s, p)
    for name, got, want in zip(("out", "dx", "dw", "db"),
                               (out.data, x.grad, wt.grad, bt.grad), ref):
        assert got.shape == want.shape, name
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= tol, f"{name}: relative error {err:.3g} > {tol}"


class TestConv2dKernelParity:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_matches_loop_reference(self, case, dtype, tol):
        check_against_loop_reference(case, dtype, tol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_batch_innermost_operands_give_the_same_bytes(self, case, dtype):
        """A conv output fed to the next conv, and the gradient coming back,
        are views of (C, H, W, B) arrays; they compute what C-contiguous
        copies of them do, bit for bit."""
        bs, cin, h, w, cout, k, s, p = case
        rng = np.random.default_rng(sum(case))
        x = rng.normal(size=(bs, cin, h, w)).astype(dtype)
        wt = rng.normal(size=(cout, cin, k, k)).astype(dtype)
        g = rng.normal(size=(bs, cout, (h + 2 * p - k) // s + 1,
                             (w + 2 * p - k) // s + 1)).astype(dtype)
        results = []
        for layout in (np.ascontiguousarray, as_batch_innermost):
            xt = T.Tensor(layout(x), requires_grad=True)
            wtt = T.Tensor(wt, requires_grad=True)
            out = T.conv2d(xt, wtt, stride=s, padding=p)
            T.backward(tsum(T.mul(out, T.Tensor(layout(g)))))
            results.append([a.tobytes() for a in (out.data, xt.grad, wtt.grad)])
        assert results[0] == results[1]

    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(2, 3, 5, 5)))
        w = t(rng.normal(size=(4, 3, 3, 3)), rg=False)
        T.backward(tsum(T.conv2d(x, w, stride=2, padding=1)))
        assert w.grad is None
        np.testing.assert_allclose(
            x.grad, loop_conv_reference(x.data, w.data, np.zeros(4),
                                        np.ones((2, 4, 3, 3)), 2, 1)[1], rtol=1e-12)


# every conv shape of a width-16 resnet18_like on 3x32x32 inputs, batch 30:
# (Cin, H, Cout, k, stride, padding)
RESNET_W16_CONVS = [(3, 32, 16, 3, 1, 1), (16, 32, 16, 3, 1, 1), (16, 32, 32, 3, 2, 1),
                    (16, 32, 32, 1, 2, 0), (32, 16, 32, 3, 1, 1), (32, 16, 64, 3, 2, 1),
                    (32, 16, 64, 1, 2, 0), (64, 8, 64, 3, 1, 1), (64, 8, 128, 3, 2, 1),
                    (64, 8, 128, 1, 2, 0), (128, 4, 128, 3, 1, 1)]
# every conv shape of the toy recipe's small_cnn (width 8, 1x8x8 inputs)
TOY_CONVS = [(1, 8, 8, 3, 1, 1), (8, 8, 16, 3, 2, 1), (16, 4, 32, 3, 2, 1), (32, 2, 32, 3, 1, 1)]
# (B, Cin, H, W, Cout, k, stride, padding) of all three, at a small batch
LOWERING_CASES = CONV_CASES + [(2, cin, h, h, cout, k, s, p)
                               for cin, h, cout, k, s, p in RESNET_W16_CONVS + TOY_CONVS]
BAND_RULES = {"default": None, "one_row": lambda *args: 1, "two_rows": lambda *args: 2}


def zero_padded(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """A (C, H, W, B) array with ph rows and pw columns of zeros on each side;
    a negative pad crops instead."""
    h, w = a.shape[1:3]
    ch, cw = max(-ph, 0), max(-pw, 0)
    return np.pad(a[:, ch:h - ch, cw:w - cw],
                  ((0, 0), (max(ph, 0),) * 2, (max(pw, 0),) * 2, (0, 0)))


class TestBands:
    """``_bands`` lowers a (C, H, W, B) array along its width, never padding it whole."""

    @pytest.mark.parametrize("rule", sorted(BAND_RULES))
    @pytest.mark.parametrize("case", LOWERING_CASES)
    def test_windows_are_slices_of_the_zero_padded_input(self, case, rule, monkeypatch):
        """Output row i's window is the (kh·kw·C, Wo·B) matrix of padded rows
        stride·i .. stride·i + kh − 1 in K order (u, v, c), bit for bit: for
        the forward's input and for the stride-1 input gradient's lowering of
        the output gradient, whose pad k − 1 − p crops where it is negative."""
        if BAND_RULES[rule] is not None:
            monkeypatch.setattr(T, "_band_rows", BAND_RULES[rule])
        b, cin, h, w, cout, k, s, p = case
        rng = np.random.default_rng(sum(case))
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        lowerings = [(rng.normal(size=(cin, h, w, b)), p, s),
                     (rng.normal(size=(cout, ho, wo, b)), k - 1 - p, 1)]
        for a, pad, stride in lowerings:
            xp = zero_padded(a, pad, pad)
            out_h = (xp.shape[1] - k) // stride + 1
            out_w = (xp.shape[2] - k) // stride + 1
            rows = []
            for i0, i1, windows in T._bands(a, pad, pad, k, k, stride, out_h, out_w):
                assert not windows.flags.writeable and windows.shape[0] == i1 - i0
                for i in range(i0, i1):
                    want = np.stack([xp[:, stride * i + u, v:v + stride * (out_w - 1) + 1:stride]
                                     for u in range(k) for v in range(k)])
                    assert windows[i - i0].tobytes() == want.reshape(-1, out_w * b).tobytes()
                    rows.append(i)
            assert rows == list(range(out_h))


class TestConv2dBands:
    """Band edges change no result: one output row per band, one band in all,
    and the default bands give the same bytes."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_one_row_bands_match_loop_reference(self, case, dtype, tol, monkeypatch):
        monkeypatch.setattr(T, "_band_rows", lambda *args: 1)
        check_against_loop_reference(case, dtype, tol)

    @staticmethod
    def conv_bytes(shape, dtype):
        """Forward, dx and dw bytes of one conv at batch 30."""
        cin, h, cout, k, s, p = shape
        rng = np.random.default_rng(sum(shape))
        x = T.Tensor(as_batch_innermost(rng.normal(size=(30, cin, h, h)).astype(dtype)),
                     requires_grad=True)
        wt = T.Tensor(rng.normal(size=(cout, cin, k, k)).astype(dtype), requires_grad=True)
        bt = T.Tensor(rng.normal(size=cout).astype(dtype))
        out = T.conv2d(x, wt, bt, stride=s, padding=p)
        g = as_batch_innermost(rng.normal(size=out.shape).astype(dtype))
        dx, dw = out._grad_fn(g)[:2]
        return [a.tobytes() for a in (out.data, dx, dw)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", RESNET_W16_CONVS)
    def test_one_band_gives_the_default_bands_bytes(self, shape, dtype, monkeypatch):
        """Each output row is its own GEMM and ``dw`` adds the rows in order,
        so how the rows are grouped into bands changes no bit."""
        banded = self.conv_bytes(shape, dtype)
        monkeypatch.setattr(T, "_band_rows", lambda *args: 1 << 30)
        assert self.conv_bytes(shape, dtype) == banded

    def test_forward_peak_holds_the_output_and_one_band(self):
        """A forward's peak, measured by tracemalloc: its output, one band of
        at most max(the padded input's bytes, ``_BLOCK_BYTES``) and the weight
        in K order, never a padded copy and a band at once."""
        b, c, h, w, k = 8, 16, 32, 32, 3
        rng = np.random.default_rng(19)
        x = t(rng.normal(size=(b, c, h, w)))
        wt = t(rng.normal(size=(c, c, k, k)))
        padded = c * (h + 2) * (w + 2) * b * 8
        assert padded > T._BLOCK_BYTES
        tracemalloc.start()
        try:
            out = T.conv2d(x, wt, stride=1, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + max(padded, T._BLOCK_BYTES) + wt.data.nbytes + SLACK

    def test_peak_stays_under_the_column_matrix(self):
        """Forward plus backward with a weight gradient, measured by tracemalloc."""
        b, c, h, w, k = 8, 16, 32, 32, 3
        rng = np.random.default_rng(17)
        x = t(rng.normal(size=(b, c, h, w)))
        wt = t(rng.normal(size=(c, c, k, k)))
        g = rng.normal(size=(b, c, h, w))
        tracemalloc.start()
        try:
            out = T.conv2d(x, wt, stride=1, padding=1)
            dx, dw = out._grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape and dw.shape == wt.shape
        padded = c * (h + 2) * (w + 2) * b * 8
        activation = b * c * h * w * 8  # the output, and dx
        assert peak < c * k * k * h * w * b * 8  # the whole column matrix, 9.4 MB
        assert peak <= 2 * padded + 2 * activation + 2 * T._BLOCK_BYTES


def col2im_whole_reference(w, g, h, wd, stride, padding):
    """The col2im input gradient as it was first written: the whole column
    gradient W.T @ g at once, folded back by kh·kw slice-adds in (u, v) order."""
    cout, cin, kh, kw = w.shape
    b, _, ho, wo = g.shape
    g_c = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(cout, -1)
    dcols = (w.reshape(cout, -1).T @ g_c).reshape(cin, kh, kw, ho, wo, b)
    dxp = np.zeros((cin, h + 2 * padding, wd + 2 * padding, b), dtype=w.dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += dcols[:, u, v]
    return dxp[:, padding:padding + h, padding:padding + wd].transpose(3, 0, 1, 2)


class TestCol2imByKernelRow:
    """The col2im input gradient (stride > 1, or Cin < Cout) builds its column
    gradient one kernel row at a time."""

    # (B, Cin, H, W, Cout, k, stride, padding): the col2im convs of CONV_CASES, of
    # a width-16 resnet18_like on 3x32x32 inputs at batch 30 and of the toy small_cnn
    CASES = [case for case in CONV_CASES if case[6] > 1 or case[1] < case[4]] + [
        (30, 3, 32, 32, 16, 3, 1, 1), (30, 16, 32, 32, 32, 3, 2, 1),
        (30, 16, 32, 32, 32, 1, 2, 0), (30, 32, 16, 16, 64, 3, 2, 1),
        (30, 32, 16, 16, 64, 1, 2, 0), (30, 64, 8, 8, 128, 3, 2, 1),
        (30, 64, 8, 8, 128, 1, 2, 0), (64, 1, 8, 8, 8, 3, 1, 1),
        (64, 8, 8, 8, 16, 3, 2, 1), (64, 16, 4, 4, 32, 3, 2, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES)
    def test_input_gradient_matches_the_whole_column_gradient_bit_for_bit(self, case, dtype):
        b, cin, h, w, cout, k, s, p = case
        rng = np.random.default_rng(sum(case))
        x = T.Tensor(rng.normal(size=(b, cin, h, w)).astype(dtype), requires_grad=True)
        wt = T.Tensor(rng.normal(size=(cout, cin, k, k)).astype(dtype))
        out = T.conv2d(x, wt, stride=s, padding=p)
        g = rng.normal(size=out.shape).astype(dtype)
        dx = out._grad_fn(g)[0]
        want = col2im_whole_reference(wt.data, g, h, w, s, p)
        assert dx.dtype == want.dtype and dx.tobytes() == want.tobytes()

    def test_peak_holds_one_kernel_row_of_the_column_gradient(self):
        """The input gradient of a stride-2 conv, measured by tracemalloc."""
        b, cin, h, cout, k = 8, 16, 32, 32, 3
        ho = h // 2
        rng = np.random.default_rng(18)
        x = t(rng.normal(size=(b, cin, h, h)))
        w = t(rng.normal(size=(cout, cin, k, k)), rg=False)
        out = T.conv2d(x, w, stride=2, padding=1)
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            dx = out._grad_fn(g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g_c = cout * ho * ho * b * 8
        padded = cin * (h + 2) * (h + 2) * b * 8
        dcols = cin * k * k * ho * ho * b * 8  # the whole column gradient, 2.4 MB
        assert peak <= g_c + padded + dx.nbytes + dcols // k + 4096


def retained(op):
    """Run ``op()`` under tracemalloc; returns (bytes it left allocated, its result).

    The result is still referenced when the count is taken, so whatever
    its graph keeps alive is counted.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, out


SLACK = 4096  # the result's Tensor, closure and small per-op objects


class TestConv2dRetainedMemory:
    """What a live graph keeps after a conv forward, measured by tracemalloc."""

    B, CIN, H, W, COUT, K = 8, 16, 16, 16, 16, 3

    def retained_bytes(self, weight_grad: bool) -> tuple[int, int]:
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(self.B, self.CIN, self.H, self.W)))
        w = t(rng.normal(size=(self.COUT, self.CIN, self.K, self.K)), rg=weight_grad)
        b = t(rng.normal(size=self.COUT), rg=weight_grad)
        kept, out = retained(lambda: T.conv2d(x, w, b, stride=1, padding=1))
        assert out._grad_fn is not None  # the graph is still alive here
        return kept, out.data.nbytes

    def im2col_bytes(self) -> int:
        return self.B * self.H * self.W * self.CIN * self.K * self.K * 8

    def test_keeps_under_half_the_column_matrix(self):
        # With a weight gradient the backward rebuilds the padded input
        # from x.data, so the closure keeps nothing beside the output.
        kept, out_bytes = self.retained_bytes(weight_grad=True)
        assert kept < self.im2col_bytes() / 2
        assert kept <= out_bytes + SLACK

    def test_frozen_weights_keep_only_the_output(self):
        kept, out_bytes = self.retained_bytes(weight_grad=False)
        x_bytes = self.B * self.CIN * self.H * self.W * 8
        assert kept <= out_bytes + x_bytes + 4096


class TestOpRetainedMemory:
    """Elementwise ops keep at most their output, batch norm its output, its
    x̂ and O(C) numbers, and neither a copy of x; ``add`` keeps nothing."""

    @staticmethod
    def x():
        return t(np.random.default_rng(5).normal(size=(8, 16, 16, 16)))

    @pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_keeps_output_plus_per_channel_stats(self, training, relu):
        """Besides its output, one x̂; the operand, a fresh op result made and
        dropped inside the count, is freed."""
        c = 16
        x = self.x()
        gamma, beta = t(np.full(c, 1.5)), t(np.full(c, 0.25))
        stats = T.RunningStats(np.full(c, 0.1), np.full(c, 2.0))
        kept, out = retained(lambda: T.batch_norm2d(T.mul_scalar(x, 1.0), gamma, beta, stats,
                                                    training, relu=relu))
        assert kept <= 2 * out.data.nbytes + 8 * 8 * c + SLACK

    @pytest.mark.parametrize("op", [lambda x: T.relu(x), lambda x: T.maximum_scalar(x, -0.5)],
                             ids=["relu", "maximum_scalar"])
    def test_elementwise_max_keeps_only_its_output(self, op):
        """Still kept once its owner has dropped it: the loss below reads it."""
        x = self.x()
        kept, loss = retained(lambda: tsum(op(x)))
        assert loss._grad_fn is not None
        assert kept <= x.data.nbytes + SLACK

    def test_add_keeps_nothing(self):
        """Its output is freed once its owner has dropped it."""
        x, b = self.x(), t(np.ones((8, 16, 16, 16)))
        kept, loss = retained(lambda: tsum(T.add(x, b)))
        assert loss._grad_fn is not None
        assert kept <= SLACK


class TestFrozenPartnerRetainedMemory:
    """``mul`` and ``matmul`` keep an operand's array only for the other
    operand's gradient: once its owner drops it, a frozen partner keeps none."""

    @pytest.mark.parametrize("first", [True, False], ids=["live_first", "live_second"])
    @pytest.mark.parametrize("op,frozen_shape", [(T.mul, (64, 4096)), (T.matmul, None)],
                             ids=["mul", "matmul"])
    def test_keeps_no_copy_of_the_live_operand(self, op, frozen_shape, first):
        rng = np.random.default_rng(9)
        leaf = t(rng.normal(size=(64, 4096)))
        if frozen_shape is None:  # matmul: (64, 4096) @ (4096, 10), or (10, 64) @ (64, 4096)
            frozen_shape = (4096, 10) if first else (10, 64)
        partner = t(rng.normal(size=frozen_shape), rg=False)

        def run():
            live = T.mul_scalar(leaf, 1.0)  # a fresh op result, as activations are
            out = op(live, partner) if first else op(partner, live)
            del live  # as a frozen forward's owner drops it
            return out

        kept, out = retained(run)
        assert out._grad_fn is not None
        assert kept <= out.data.nbytes + SLACK  # the live operand is 2 MiB


class TestReluKeepMask:
    """``relu(..., keep_mask=True)`` keeps one bool per element instead of its output."""

    def test_same_bytes_and_gradient_as_reading_the_output(self):
        data = np.random.default_rng(11).normal(size=(3, 4, 5, 5))
        data[0, 0, 0, :3] = (0.0, np.nan, -0.0)
        coef = T.Tensor(np.random.default_rng(12).normal(size=data.shape))
        results = []
        for keep_mask in (False, True):
            x = t(data)
            out = T.relu(T.mul_scalar(x, 1.0), keep_mask=keep_mask)
            T.backward(tsum(T.mul(out, coef)))
            results.append((out.data.tobytes(), x.grad.tobytes()))
        assert results[0] == results[1]

    def test_keeps_one_byte_per_element_once_its_output_is_dropped(self):
        x = T.mul_scalar(t(np.random.default_rng(13).normal(size=(8, 16, 16, 16))), 1.0)
        kept, loss = retained(lambda: tsum(T.relu(x, keep_mask=True)))
        assert loss._grad_fn is not None
        assert kept <= x.data.size + SLACK


class TestRelu:
    def test_forward(self):
        np.testing.assert_array_equal(T.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_grad_indicator(self):
        x = t([-1.0, 2.0])
        T.backward(tsum(T.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_propagates_nan_with_zero_gradient(self):
        x = t([np.nan, -1.0, 2.0])
        out = T.relu(x)
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 2.0])
        T.backward(tsum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_subgradient_at_zero_is_zero(self):
        x = t([0.0])
        T.backward(tsum(T.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        expect = np.array([[max(v, 0.0) for v in row] for row in x])
        np.testing.assert_array_equal(T.relu(t(x)).data, expect)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(2.0, 6.0, size=(4, 3, 5, 5)))
        gamma, beta = t(np.ones(3)), t(np.zeros(3))
        stats = T.RunningStats.create(3)
        out = T.batch_norm2d(x, gamma, beta, stats, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(var, 1.0, atol=1e-6)

    def test_eval_mode_affine(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 2, 3, 3))
        gamma = t(np.array([2.0, 0.5]))
        beta = t(np.array([1.0, -1.0]))
        stats = T.RunningStats.create(2)  # mean 0, var 1
        out = T.batch_norm2d(t(x), gamma, beta, stats, training=False)
        expect = x / np.sqrt(1 + 1e-5) * gamma.data.reshape(1, 2, 1, 1) \
            + beta.data.reshape(1, 2, 1, 1)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            T.batch_norm2d(t(np.zeros((1, 2, 3, 3))), t(np.ones(2)), t(np.zeros(2)),
                           T.RunningStats.create(2), training=True)

    def test_running_stats_update(self):
        rng = np.random.default_rng(13)
        x = rng.normal(1.0, 2.0, size=(8, 2, 4, 4))
        stats = T.RunningStats.create(2)
        T.batch_norm2d(t(x), t(np.ones(2)), t(np.zeros(2)), stats, training=True)
        n = 8 * 4 * 4
        bm = x.mean(axis=(0, 2, 3))
        bv = x.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(stats.mean, 0.1 * bm, rtol=1e-12)
        np.testing.assert_allclose(stats.var, 0.9 + 0.1 * bv, rtol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_vs_fd(self, training):
        rng = np.random.default_rng(14)
        x = t(rng.normal(size=(3, 2, 2, 2)))
        gamma = t(rng.uniform(0.5, 1.5, size=2))
        beta = t(rng.normal(size=2))
        coef = rng.normal(size=(3, 2, 2, 2))
        stats = T.RunningStats(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))

        def forward():
            frozen = T.RunningStats(stats.mean.copy(), stats.var.copy())  # independent evaluations
            out = T.batch_norm2d(x, gamma, beta, frozen, training=training)
            return tsum(T.mul(out, T.Tensor(coef)))

        loss = forward()
        T.backward(loss)
        def loss_fn():
            return float(forward().data)
        assert_grad_matches(loss_fn, x.data, x.grad, what="bn/x")
        assert_grad_matches(loss_fn, gamma.data, gamma.grad, what="bn/gamma")
        assert_grad_matches(loss_fn, beta.data, beta.grad, what="bn/beta")


def batch_norm_reference(x, gamma, beta, g, relu):
    """Train-mode batch norm in float64, by the centered formulas over
    (B, C, H, W) axes: output, dx, dγ and dβ for upstream gradient g, and the
    running statistics a fresh ``RunningStats`` is updated to."""
    x, gamma, beta, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, g))
    axes, c = (0, 2, 3), x.shape[1]
    n = x.size // c
    mean = x.mean(axis=axes)
    centered = x - mean.reshape(1, c, 1, 1)
    var = (centered * centered).mean(axis=axes)
    inv_std = (1.0 / np.sqrt(var + T.BN_EPS)).reshape(1, c, 1, 1)
    xhat = centered * inv_std
    out = xhat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
    if relu:
        g = g * (out > 0)
        out = np.maximum(out, 0.0)
    dxhat = g * gamma.reshape(1, c, 1, 1)
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=axes, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    stats = (0.1 * mean, 0.9 + 0.1 * var * n / (n - 1))
    return (out, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)) + stats


class TestBatchNormTrainMode:
    """The train-mode forward, its running statistics and all three gradients
    against the centered formulas: row sums and dot products over (C, H·W·B)
    views, and dx as a·g + b·x̂ + c, change them only by rounding."""

    @pytest.mark.parametrize("layout", [as_batch_innermost, np.ascontiguousarray],
                             ids=["batch_innermost", "c_contiguous"])
    @pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
    @pytest.mark.parametrize("shape", [(30, 16, 32, 32), (5, 3, 7, 9)], ids=["stage1", "odd"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_the_centered_formulas(self, shape, relu, layout, dtype, tol):
        c = shape[1]
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(1.0, 2.0, size=shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        x = T.Tensor(layout(data), requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, c).astype(dtype), requires_grad=True)
        beta = T.Tensor(rng.normal(0.0, 0.5, c).astype(dtype), requires_grad=True)
        stats = T.RunningStats.create(c, dtype)
        out = T.batch_norm2d(x, gamma, beta, stats, True, relu=relu)
        T.backward(tsum(T.mul(out, T.Tensor(layout(g)))))
        assert out.data.dtype == dtype and batch_innermost(out.data)
        want = batch_norm_reference(data, gamma.data, beta.data, g, relu)
        got = (out.data, x.grad, gamma.grad, beta.grad, stats.mean, stats.var)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got, want):
            err = np.max(np.abs(a - b)) / np.max(np.abs(b))
            assert err <= tol, f"{name}: relative error {err:.3g} > {tol}"


class TestBatchNormFusedRelu:
    """``relu`` runs the ReLU inside the batch norm; it changes no bit of what
    batch norm then ``relu`` compute, and neither writes its operand."""

    @staticmethod
    def step(data, training, fused):
        rng = np.random.default_rng(31)
        c = data.shape[1]
        x, gamma, beta = t(data), t(rng.uniform(0.5, 1.5, c)), t(rng.normal(0.0, 0.5, c))
        stats = T.RunningStats(rng.normal(size=c), rng.uniform(0.5, 2.0, c))
        coef = T.Tensor(rng.normal(size=data.shape))
        out = T.batch_norm2d(x, gamma, beta, stats, training, relu=fused)
        if not fused:
            out = T.relu(out)
        T.backward(tsum(T.mul(out, coef)))
        assert x.data.tobytes() == data.tobytes()
        return [out.data.tobytes(), x.grad.tobytes(), gamma.grad.tobytes(),
                beta.grad.tobytes(), stats.mean.tobytes(), stats.var.tobytes()]

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_batch_norm_then_relu_bit_for_bit(self, training):
        data = np.random.default_rng(30).normal(1.0, 2.0, size=(4, 3, 5, 5))
        assert self.step(data, training, fused=True) == self.step(data, training, fused=False)

    @pytest.mark.parametrize("stride,cout", [(1, 3), (2, 5)], ids=["correlate_dx", "col2im_dx"])
    def test_conv_of_a_dropped_input_gets_the_same_gradients(self, stride, cout):
        """The weight gradient refills its input into its padded buffer, so the
        input is freed with its last reference; a plain copy of it, which has no
        hook, is kept and read instead. Both give the same bits."""
        rng = np.random.default_rng(34)
        data = rng.normal(size=(3, 4, 6, 6))
        w_data = rng.normal(size=(cout, 4, 3, 3))
        results = []
        for refill in (False, True):
            x, w = t(data), t(w_data)
            gamma, beta, stats = t(np.full(4, 1.2)), t(np.full(4, 0.1)), T.RunningStats.create(4)
            h = T.batch_norm2d(x, gamma, beta, stats, True, relu=True)
            if not refill:
                h = T.mul_scalar(h, 1.0)  # a plain copy: exact, forward and backward
            out = T.conv2d(h, w, stride=stride, padding=1)
            freed = weakref.ref(h.data)
            del h
            assert (freed() is None) == refill
            T.backward(tsum(T.mul(out, T.Tensor(np.ones(out.shape)))))
            results.append([g.tobytes() for g in (x.grad, w.grad, gamma.grad, beta.grad)])
        assert results[0] == results[1]


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss = T.softmax_cross_entropy(t([[0.0, 0.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_stability(self):
        loss = T.softmax_cross_entropy(t([[1000.0, 0.0]]), [0])
        assert 0.0 <= float(loss.data) < 1e-12
        assert np.isfinite(loss.data)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(t([[0.0, 1.0]]), [2])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, size=4)
        # direct per-element computation in float128-ish (float64 suffices)
        expect = 0.0
        for b in range(4):
            p = np.exp(logits[b]) / np.exp(logits[b]).sum()
            expect += -np.log(p[y[b]])
        expect /= 4
        loss = T.softmax_cross_entropy(t(logits), y)
        assert float(loss.data) == pytest.approx(expect, abs=1e-10)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(22)
        logits = t(rng.normal(size=(3, 4)))
        y = np.array([1, 0, 3])
        loss = T.softmax_cross_entropy(logits, y)
        T.backward(loss)
        def loss_fn():
            return float(T.softmax_cross_entropy(T.Tensor(logits.data), y).data)
        assert_grad_matches(loss_fn, logits.data, logits.grad, what="ce")


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(23)
        s = T.softmax(t(rng.normal(scale=5.0, size=(6, 4))))
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(24)
        x = t(rng.normal(size=(2, 3)))
        coef = rng.normal(size=(2, 3))
        def forward():
            return tsum(T.mul(T.softmax(x), T.Tensor(coef)))
        loss = forward()
        T.backward(loss)
        assert_grad_matches(lambda: float(forward().data), x.data, x.grad, what="softmax")


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = t([[0.2, 0.8], [0.5, 0.5]])
        q = t([[0.2, 0.8], [0.5, 0.5]])
        assert float(T.kl_divergence(p, q).data) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_with_zero_entry(self):
        loss = T.kl_divergence(t([[1.0, 0.0]]), t([[0.5, 0.5]]))
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(NormalizationError):
            T.kl_divergence(t([[0.5, 0.4]]), t([[0.5, 0.5]]))
        with pytest.raises(NormalizationError):
            T.kl_divergence(t([[0.5, 0.5]]), t([[0.9, 0.2]]))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(31)
        p = rng.uniform(0.1, 1.0, size=(5, 4)); p /= p.sum(axis=1, keepdims=True)
        q = rng.uniform(0.1, 1.0, size=(5, 4)); q /= q.sum(axis=1, keepdims=True)
        expect = np.mean([
            sum(p[b, k] * np.log(p[b, k] / q[b, k]) for k in range(4))
            for b in range(5)
        ])
        assert float(T.kl_divergence(t(p), t(q)).data) == pytest.approx(expect, abs=1e-10)

    def test_gradient_both_args_vs_fd(self):
        rng = np.random.default_rng(32)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(3, 4)))
        def forward():
            return T.kl_divergence(T.softmax(a), T.softmax(b))
        loss = forward()
        T.backward(loss)
        assert_grad_matches(lambda: float(forward().data), a.data, a.grad, what="kl/p")
        assert_grad_matches(lambda: float(forward().data), b.data, b.grad, what="kl/q")

    def test_per_row_reduction(self):
        rng = np.random.default_rng(33)
        p = rng.uniform(0.1, 1.0, size=(3, 2)); p /= p.sum(axis=1, keepdims=True)
        q = rng.uniform(0.1, 1.0, size=(3, 2)); q /= q.sum(axis=1, keepdims=True)
        rows = T.kl_divergence(t(p), t(q), reduction="none")
        assert rows.data.shape == (3,)
        assert float(T.kl_divergence(t(p), t(q)).data) == pytest.approx(rows.data.mean())


class TestBoostedCrossEntropy:
    def test_hand_value(self):
        loss = T.boosted_cross_entropy(t([[0.8, 0.1, 0.1]]), [0])
        assert float(loss.data) == pytest.approx(-np.log(0.8) - np.log(0.9), rel=1e-12)

    def test_uniform_two_class(self):
        loss = T.boosted_cross_entropy(t([[0.5, 0.5]]), [0])
        assert float(loss.data) == pytest.approx(-2.0 * np.log(0.5), rel=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(41)
        x = t(rng.normal(size=(3, 4)))
        y = np.array([0, 2, 1])
        def forward():
            return T.boosted_cross_entropy(T.softmax(x), y)
        loss = forward()
        T.backward(loss)
        assert_grad_matches(lambda: float(forward().data), x.data, x.grad, what="bce")


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = t(np.zeros((2, 3, 4)))
        T.backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_quadratic(self):
        x = t([1.0, 2.0])
        T.backward(tsum(T.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            T.backward(t([1.0, 2.0]))

    def test_graph_consumed(self):
        x = t([1.0])
        loss = tsum(x)
        T.backward(loss)
        with pytest.raises(GraphConsumedError):
            T.backward(loss)

    def test_new_loss_over_a_consumed_node_raises(self):
        x = t([1.0, -2.0])
        hidden = T.relu(T.mul_scalar(x, 3.0))
        T.backward(tsum(hidden))
        with pytest.raises(GraphConsumedError):
            T.backward(tsum(T.mul_scalar(hidden, 2.0)))

    def test_consumed_nodes_keep_their_data(self):
        x = t([1.0, -2.0])
        hidden = T.relu(T.mul_scalar(x, 3.0))
        loss = tsum(hidden)
        T.backward(loss)
        np.testing.assert_array_equal(hidden.data, [3.0, 0.0])
        assert float(loss.data) == 3.0

    def test_frees_the_graph_while_the_loss_is_referenced(self):
        rng = np.random.default_rng(2)
        x = t(rng.normal(size=(4, 3, 8, 8)))
        w = t(rng.normal(size=(6, 3, 3, 3)))
        gamma, beta = t(np.ones(6)), t(np.zeros(6))
        stats = T.RunningStats.create(6)
        leaves = (x, w, gamma, beta)

        def forward_and_backward():
            h = T.relu(T.batch_norm2d(T.conv2d(x, w, padding=1), gamma, beta, stats, True))
            loss = T.tmean(T.mul(h, h))
            T.backward(loss)
            return loss

        kept, loss = retained(forward_and_backward)
        assert kept <= sum(leaf.grad.nbytes for leaf in leaves) + SLACK
        assert loss._grad_fn is None and loss._node.parents == ()

    def test_a_replaced_grad_fn_routes_the_backward(self):
        """A tracer may wrap an op result's closure: ``backward`` calls the wrapper."""
        x = t([1.0, -2.0, 3.0])
        out = T.mul_scalar(x, 2.0)
        calls = []
        grad_fn = out._grad_fn
        out._grad_fn = lambda g: calls.append(g.copy()) or (grad_fn(g)[0] * 10.0,)
        T.backward(tsum(out))
        assert len(calls) == 1 and calls[0].tolist() == [1.0, 1.0, 1.0]
        np.testing.assert_array_equal(x.grad, [20.0, 20.0, 20.0])
        assert out._grad_fn is None

    def test_accumulation_is_additive(self):
        x = t([1.0, 2.0])
        T.backward(tsum(x))
        first = x.grad.copy()
        T.backward(tsum(x))  # fresh graph, same leaf
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_each_node_visited_once(self):
        x = t([1.0, 2.0])
        shared = T.mul(x, x)
        loss = tsum(T.add(shared, shared))  # diamond
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * 2 * x.data)

    def test_no_grad_blocks_recording(self):
        x = t([1.0])
        with T.no_grad():
            out = tsum(T.mul(x, x))
        assert out._grad_fn is None and not out.requires_grad


class TestDtypeAndDeterminism:
    def test_default_dtype_is_float64(self):
        assert T.Tensor([1, 2]).data.dtype == np.float64

    def test_float32_selectable(self):
        assert T.Tensor([1.0], dtype=np.float32).data.dtype == np.float32

    def test_ops_deterministic(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(4, 3, 6, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        a = T.conv2d(T.Tensor(x), T.Tensor(w)).data
        b = T.conv2d(T.Tensor(x), T.Tensor(w)).data
        assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_flatten_reformat_round_trip_bit_exact(seed, c, h, w):
    """(B, C, H, W) -> (B, CHW) -> back is the identity, bit for bit."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, c, h, w))
    xt = T.Tensor(x)
    round_trip = T.reshape(T.reshape(xt, (2, c * h * w)), (2, c, h, w))
    assert round_trip.data.tobytes() == x.tobytes()


def test_reshape_grad():
    x = t(np.arange(6, dtype=np.float64).reshape(2, 3))
    coef = np.arange(6, dtype=np.float64).reshape(3, 2)
    loss = tsum(T.mul(T.reshape(x, (3, 2)), T.Tensor(coef)))
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, coef.reshape(2, 3))


def test_gather_and_masked_rowmax_grads():
    rng = np.random.default_rng(60)
    x = t(rng.normal(size=(4, 5)))
    y = np.array([0, 3, 2, 1])
    def forward():
        return T.tmean(T.gather_labels(x, y) - T.masked_rowmax(x, y))
    loss = forward()
    T.backward(loss)
    assert_grad_matches(lambda: float(forward().data), x.data, x.grad,
                        what="gather/rowmax")


def test_take_columns_selects_and_scatters():
    """Each sample times its gathered column; both gradients match central
    differences, with a column selected twice."""
    rng = np.random.default_rng(61)
    z, w = t(rng.normal(size=(4, 2, 1, 3))), t(rng.normal(size=(6, 5)))
    idx = np.array([1, 3, 1, 4])
    out = T.take_columns(z, w, idx)
    assert out.data.tobytes() == (z.data * w.data[:, idx].T.reshape(z.shape)).tobytes()
    c = t(rng.normal(size=z.shape), rg=False)  # a non-uniform upstream gradient

    def forward():
        return tsum(T.mul(T.take_columns(z, w, idx), c))

    T.backward(forward())
    assert_grad_matches(lambda: float(forward().data), z.data, z.grad, what="take_columns dz")
    assert_grad_matches(lambda: float(forward().data), w.data, w.grad, what="take_columns dw")


LABEL_OPS = {  # every op that indexes by label, on 3 samples of 4 classes
    "gather_labels": lambda y: T.gather_labels(t(np.zeros((3, 4))), y),
    "masked_rowmax": lambda y: T.masked_rowmax(t(np.zeros((3, 4))), y),
    "softmax_cross_entropy": lambda y: T.softmax_cross_entropy(t(np.zeros((3, 4))), y),
    "boosted_cross_entropy": lambda y: T.boosted_cross_entropy(t(np.full((3, 4), 0.25)), y),
    "take_columns": lambda y: T.take_columns(t(np.zeros((3, 2, 1, 1))), t(np.zeros((2, 4))), y),
}


@pytest.mark.parametrize("labels, error", [([0, 1], ShapeError), ([0, 1, 2, 3], ShapeError),
                                           ([0, -1, 2], IndexError),
                                           ([0.9, 2.7, 1.0], IndexError),
                                           ([1.5, True, 0], IndexError),
                                           ([True, False, True], IndexError)],
                         ids=["short", "long", "negative", "fractional", "mixed", "bool"])
@pytest.mark.parametrize("op", sorted(LABEL_OPS))
def test_labels_must_be_one_per_sample_and_in_range(op, labels, error):
    """Non-integer labels raise rather than being truncated to columns (0.9 -> 0)."""
    with pytest.raises(error):
        LABEL_OPS[op](np.array(labels))


def test_maximum_scalar_propagates_nan_with_zero_gradient():
    x = t([np.nan, -2.0, 3.0])
    out = T.maximum_scalar(x, -1.0)
    assert np.isnan(out.data[0])
    np.testing.assert_array_equal(out.data[1:], [-1.0, 3.0])
    T.backward(tsum(out))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])
