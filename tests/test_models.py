"""Backbones, insertion points, and checkpoint persistence."""

import hashlib
import struct
import tracemalloc
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest

from ewas import models as M
from ewas import scaling as S
from ewas import tensor as T
from ewas.attacks import AttackConfig, _objective, frozen_params, pgd
from ewas.errors import (
    CheckpointChecksumError,
    CheckpointContentError,
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
)

from _tape import closure, owner, tape


class TestSmallCnn:
    def test_zero_image_gives_finite_logits(self):
        model = M.ModelSection(width=4).build(0)
        out = model.forward(np.zeros((1, 1, 8, 8)))
        assert out.logits.data.shape == (1, 3)
        assert np.all(np.isfinite(out.logits.data))

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError, match="input_shape"):
            M.ModelSection(input_shape=(1, 4, 4))

    def test_parameter_count_matches_hand_sum(self):
        model = M.ModelSection(width=4).build(0)
        # channels (4, 8, 16, 16); conv 3x3 no bias; bn gamma+beta; head w+b
        expect = (
            (4 * 1 * 9) + 8
            + (8 * 4 * 9) + 16
            + (16 * 8 * 9) + 32
            + (16 * 16 * 9) + 32
            + (16 * 3 + 3)
        )
        total = sum(t.data.size for _, t in model.parameters())
        assert total == expect == 3919

    def test_insertion_points(self):
        model = M.ModelSection(width=2).build(0)
        assert model.INSERTION_POINTS == ("block1", "block2", "block3", "block4")

    def test_build_and_forward_deterministic(self):
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, 8, 8))
        outs = []
        for _ in range(2):
            model = M.ModelSection(width=4).build(9)
            outs.append(model.forward(x).logits.data)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_build_inserts_each_module_at_the_run_seed(self):
        """Building with insertion points is building without, then ``insert_ewas``
        at the same seed for each point: module i draws from its own stream."""
        built = M.ModelSection(insertion_points=("block3", "block4")).build(6)
        model = M.ModelSection().build(6)
        M.insert_ewas(model, "block3", seed=6)
        M.insert_ewas(model, "block4", seed=6)
        assert ([(n, t.data.tobytes()) for n, t in built.parameters()]
                == [(n, t.data.tobytes()) for n, t in model.parameters()])

    def test_spatial_reduction(self):
        model = M.ModelSection(width=2, input_shape=(1, 16, 16)).build(0)
        out = model.forward(np.zeros((1, 1, 16, 16)), capture=("block4",))
        assert out.captured["block4"].data.shape == (1, 8, 4, 4)


RESNET = M.ModelSection(arch="resnet18_like", width=4, input_shape=(3, 8, 8), num_classes=5)


class TestResNetLike:
    def test_zero_input_finite_logits(self):
        model = RESNET.build(1)
        out = model.forward(np.zeros((1, 3, 8, 8)))
        assert out.logits.data.shape == (1, 5)
        assert np.all(np.isfinite(out.logits.data))

    def test_seventeen_conv_ordinals_plus_head(self):
        model = RESNET.build(0)
        points = model.INSERTION_POINTS
        assert points == tuple(f"layer{i}" for i in range(1, 18))
        assert any(name.startswith("head") for name, _ in model.parameters())

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            replace(RESNET, width=2)

    def test_basic_block_skip_identity(self):
        """Zero conv weights + identity BN reduce a block to ReLU(x) = x."""
        rng = np.random.default_rng(2)
        block = M.BasicBlock(RESNET.build(0), "blk", 3, 3, 1, rng, "t1", "t2")
        block.conv1.weight.data[...] = 0.0
        block.conv2.weight.data[...] = 0.0

        class _Stub:
            ewas_modules = []

        ctx = M._ForwardCtx(_Stub(), None, "inference", frozenset())
        x = np.abs(rng.normal(size=(2, 3, 5, 5)))  # nonnegative input
        out = block.forward(T.Tensor(x), False, ctx)
        np.testing.assert_allclose(out.data, x, atol=1e-12)


class TestTapShapes:
    @pytest.mark.parametrize("arch,width", [("small_cnn", 1), ("small_cnn", 3),
                                            ("resnet18_like", 4), ("resnet18_like", 5)])
    @pytest.mark.parametrize("hw", [(8, 8), (9, 11), (13, 8), (15, 17)])
    def test_recorded_geometry_matches_a_forward(self, arch, width, hw):
        """The constructor derives each insertion point's (C, H, W) from the
        convs' kernel, stride and padding; a forward agrees at every point."""
        spec = M.ModelSection(arch=arch, width=width, input_shape=(2, *hw))
        model = spec.build(0)
        points = model.INSERTION_POINTS
        out = model.forward(np.zeros((1, *spec.input_shape)), capture=points)
        assert model.tap_shapes == {name: out.captured[name].data.shape[1:] for name in points}


def randomize_batch_norms(model, seed):
    """Non-trivial gamma, beta and running stats, so a fold has work to do."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if isinstance(layer, M.ConvBnLayer):
            c = layer.gamma.data.shape[0]
            layer.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            layer.beta.data[...] = rng.normal(0.0, 0.2, c)
            layer.stats.mean[...] = rng.normal(0.0, 0.2, c)
            layer.stats.var[...] = rng.uniform(0.5, 2.0, c)
    return model


def batch_norms(model):
    return [layer for layer in model.layers if isinstance(layer, M.ConvBnLayer)]


FOLD_SPECS = {"small_cnn": M.ModelSection(width=4, input_shape=(2, 8, 8)),
              "resnet18_like": RESNET}


class TestFrozenBatchNormFold:
    """Eval-mode conv-BN pairs whose parameters get no gradient run as one conv."""

    def logits_and_input_grad(self, model, x, y):
        xt = T.Tensor(x, requires_grad=True)
        logits = model.forward(xt, train=False).logits
        T.backward(T.softmax_cross_entropy(logits, y))
        return logits.data, xt.grad

    @pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_matches_unfolded_logits_and_input_gradient(self, arch, dtype, tol):
        spec = replace(FOLD_SPECS[arch], dtype=dtype)
        model = randomize_batch_norms(spec.build(3), 4)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, (6, *spec.input_shape)).astype(dtype)
        y = rng.integers(0, spec.num_classes, 6)
        with frozen_params(model):
            folded = self.logits_and_input_grad(model, x, y)
            for bn in batch_norms(model):
                bn.gamma.requires_grad = True  # a gradient can reach gamma: no fold
            reference = self.logits_and_input_grad(model, x, y)
        for got, want in zip(folded, reference):
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        assert folded[1].tobytes() != reference[1].tobytes()  # the fold did run

    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_batch_norm_runs_only_where_a_gradient_can_reach(self, arch, monkeypatch):
        spec = FOLD_SPECS[arch]
        model = randomize_batch_norms(spec.build(6), 7)
        x = np.random.default_rng(8).uniform(0, 1, (4, *spec.input_shape))
        n = len(batch_norms(model))
        calls = []
        monkeypatch.setattr(M, "batch_norm2d", lambda *args, **kwargs: calls.append(args)
                            or T.batch_norm2d(*args, **kwargs))

        def bn_calls(inputs, train=False):
            calls.clear()
            model.forward(inputs, train=train)
            return len(calls)

        with frozen_params(model):
            assert bn_calls(T.Tensor(x, requires_grad=True)) == 0
            batch_norms(model)[0].gamma.requires_grad = True
            assert bn_calls(x) == 1
        with T.no_grad():
            assert bn_calls(x) == 0
            assert bn_calls(x, train=True) == n
        assert bn_calls(x) == n
        assert bn_calls(x, train=True) == n

    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_pgd_leaves_parameters_and_stats_bit_identical(self, arch):
        spec = FOLD_SPECS[arch]
        model = randomize_batch_norms(spec.build(9), 10)
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (4, *spec.input_shape))
        before = [a.copy() for _, a in M._param_records(model)]
        pgd(model, x, rng.integers(0, spec.num_classes, 4),
            AttackConfig(epsilon=0.1, step_size=0.05, steps=2, random_start=True))
        for old, (_, new) in zip(before, M._param_records(model)):
            assert old.tobytes() == new.tobytes()

    def test_frozen_resnet_forward_keeps_under_three_conv_outputs(self, monkeypatch):
        """What a frozen forward's live graph keeps, measured by tracemalloc.

        Per conv: its output, the ReLU or residual sum that follows it, and
        a ReLU mask, plus the folded weight its closure needs for the input
        gradient. Unfolded eval batch norm would also keep its normalized
        input and its output, about 4.4 conv outputs in all.
        """
        spec = replace(RESNET, input_shape=(3, 32, 32))
        model = randomize_batch_norms(spec.build(12), 13)
        x = T.Tensor(np.random.default_rng(14).uniform(0, 1, (8, 3, 32, 32)),
                     requires_grad=True)
        weight_bytes = sum(layer.weight.data.nbytes for layer in model.layers
                           if isinstance(layer, M.ConvBnLayer))
        out_bytes = []

        def conv2d(*args):
            out = T.conv2d(*args)
            out_bytes.append(out.data.nbytes)
            return out

        with frozen_params(model):
            with monkeypatch.context() as patch:
                patch.setattr(M, "conv2d", conv2d)
                model.forward(x)
            tracemalloc.start()
            try:
                logits = model.forward(x).logits
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert logits._grad_fn is not None  # the graph is still alive here
        assert kept <= 3 * sum(out_bytes) + weight_bytes


class TestInplaceActivations:
    """No op writes its operand: conv outputs, taps and ALC inputs keep their bytes."""

    HOSTS = {"small_cnn": ("block2",), "resnet18_like": ("layer4", "layer15")}

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval_live"])
    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_conv_outputs_keep_their_bytes_through_forward_and_backward(self, arch, train,
                                                                         monkeypatch):
        """Unfolded (train mode, or eval mode with live parameters), every
        conv output, the operand of a batch norm, still holds the bytes its
        conv wrote after the forward and after the backward."""
        spec = replace(FOLD_SPECS[arch], insertion_points=self.HOSTS[arch])
        model = randomize_batch_norms(spec.build(40), 41)
        convs = []

        def recorded_conv(*args):
            out = T.conv2d(*args)
            convs.append((out, out.data.tobytes()))
            return out

        monkeypatch.setattr(M, "conv2d", recorded_conv)
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.uniform(0, 1, (4, *spec.input_shape)), requires_grad=True)
        y = rng.integers(0, spec.num_classes, 4)
        out = model.forward(x, labels=y, train=train,
                            mask_mode="training" if train else "inference")
        loss = T.softmax_cross_entropy(out.logits, y)
        for scores in out.alc_scores:
            loss = T.add(loss, T.softmax_cross_entropy(scores, y))
        after_forward = [conv.data.tobytes() for conv, _ in convs]
        T.backward(loss)
        assert len(convs) == len(batch_norms(model)) and x.grad is not None
        for (conv, made), forward_bytes in zip(convs, after_forward):
            assert forward_bytes == made
            assert conv.data.tobytes() == made

    @pytest.mark.parametrize("spec,hosts", [
        (M.ModelSection(width=4, input_shape=(2, 8, 8)), ("block1", "block2", "block4")),
        (RESNET, ("layer1", "layer4", "layer5", "layer5", "layer15")),
    ], ids=["small_cnn", "resnet18_like"])
    def test_taps_and_alc_inputs_keep_their_bytes(self, spec, hosts, monkeypatch):
        """Nothing later in the forward writes over a tapped activation."""
        model = replace(spec, insertion_points=hosts).build(18)
        tapped, alc_inputs = {}, []
        tap, ewas_forward = M._ForwardCtx.tap, M.ewas_forward

        def record_tap(ctx, name, h):
            out = tap(ctx, name, h)
            tapped[name] = out.data.tobytes()
            return out

        def record_alc(z, *args):
            alc_inputs.append((z, z.data.tobytes()))
            return ewas_forward(z, *args)

        monkeypatch.setattr(M._ForwardCtx, "tap", record_tap)
        monkeypatch.setattr(M, "ewas_forward", record_alc)
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.uniform(0, 1, (4, *spec.input_shape)))
        y = rng.integers(0, spec.num_classes, 4)
        out = model.forward(x, labels=y, train=True, mask_mode="training",
                            capture=model.INSERTION_POINTS)
        assert sorted(out.captured) == sorted(model.INSERTION_POINTS)
        for name, h in out.captured.items():
            assert h.data.tobytes() == tapped[name], name
        assert len(alc_inputs) == len(hosts)
        for z, before in alc_inputs:
            assert z.data.tobytes() == before


class TestDroppedActivations:
    """A BN-ReLU output is freed once its last forward reader has run, unless a
    tap scales or captures it: the next conv's weight gradient keeps its
    refill hook, which writes it again from x̂."""

    # (spec, how many BN-ReLU outputs a train forward without captures frees,
    #  and how many of them it frees without refill hooks)
    SPECS = {
        # blocks 1, 3 and 4; the module at block2 scales its output. Block 4's
        # output is read only by the pool, whose backward reads nothing of it.
        "small_cnn": (replace(FOLD_SPECS["small_cnn"], insertion_points=("block2",)), 3, 1),
        # the stem and 7 of 8 blocks' inner ones; the module at layer4 scales one
        "resnet18_like": (replace(RESNET, insertion_points=("layer4",)), 8, 0),
    }

    @staticmethod
    def train_step(spec, capture, refill, monkeypatch):
        """One train-mode forward and backward from a fresh model; returns the
        bytes of the loss, the parameter gradients and the running statistics,
        and how many BN-ReLU outputs were freed before the backward. Without
        ``refill`` each output loses its hook, so a conv keeps the array."""
        model = randomize_batch_norms(spec.build(24), 25)
        rng = np.random.default_rng(26)
        x = rng.uniform(0, 1, (4, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, 4)
        outputs = []

        def bn(*args, **kwargs):
            out = T.batch_norm2d(*args, **kwargs)
            if kwargs["relu"]:
                outputs.append(weakref.ref(out.data))
                if not refill:
                    out._refill = None
            return out

        with monkeypatch.context() as patch:
            patch.setattr(M, "batch_norm2d", bn)
            fwd = model.forward(x, labels=y, train=True, mask_mode="training",
                                capture=capture)
        loss = T.add(T.softmax_cross_entropy(fwd.logits, y),
                     T.softmax_cross_entropy(fwd.alc_scores[0], y))
        freed = sum(ref() is None for ref in outputs)
        T.backward(loss)
        state = [loss.data.tobytes()]
        state += [p.grad.tobytes() for _, p in model.parameters()]
        state += [a.tobytes() for _, a in model.state_arrays()]
        return state, freed

    @pytest.mark.parametrize("arch", sorted(SPECS))
    def test_dropping_changes_no_bit_of_a_train_step(self, arch, monkeypatch):
        """Captured at every point, no output is freed; read by a conv from its
        array instead of refilled, only one no conv reads is; otherwise each
        uncaptured, unscaled one is. The step is the same bit for bit."""
        spec, dropped, unread = self.SPECS[arch]
        every_point = M._ARCHS[spec.arch].INSERTION_POINTS
        kept, none_freed = self.train_step(spec, every_point, True, monkeypatch)
        read, freed_unread = self.train_step(spec, (), False, monkeypatch)
        got, freed = self.train_step(spec, (), True, monkeypatch)
        assert (none_freed, freed_unread, freed) == (0, unread, dropped)
        assert got == kept == read


class TestFrozenTape:
    """An attack step's forward (eval mode, no parameter requires grad, so every
    conv is folded) keeps a bool mask per ReLU and no activation it does not
    capture."""

    # (spec, scaling-module hosts, lambda_attack)
    CASES = {
        "resnet18_like_f32": (replace(RESNET, width=8, input_shape=(3, 32, 32),
                                      dtype="float32"), ("layer2",), 1.0),
        "resnet18_like_f64": (replace(RESNET, width=8, input_shape=(3, 32, 32)),
                              ("layer15",), 0.0),
        "small_cnn": (M.ModelSection(width=8, input_shape=(2, 32, 32)), ("block2",), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_keeps_one_byte_per_relu_element_and_the_folded_weights(self, case, monkeypatch):
        """What one attack step's forward and objective keep live, measured by
        tracemalloc: a bool per ReLU element, each folded conv's weight and
        bias and at most 2 KiB per tape entry. Read off the tape, every array
        at least as large as the smallest ReLU mask is a ReLU mask, a folded
        weight or a module weight, and no array has a selected mask's
        (C*H*W, B) shape: the scaling gathers its columns again in the
        backward."""
        spec, hosts, lam = self.CASES[case]
        model = randomize_batch_norms(replace(spec, insertion_points=hosts).build(30), 31)
        rng = np.random.default_rng(32)
        batch = 16
        x = T.Tensor(rng.uniform(0, 1, (batch, *spec.input_shape)).astype(spec.dtype),
                     requires_grad=True)
        y = rng.integers(0, spec.num_classes, batch)
        relu, relu_outs = T.relu, []

        def counted_relu(*args, **kwargs):
            out = relu(*args, **kwargs)
            relu_outs.append(out.data)
            return out

        def objective():  # as ``pgd`` takes it at one step's input
            out = model.forward(x, labels=y, train=False, mask_mode="inference")
            return _objective(out, y, "cross_entropy", lam, 0.0)

        with frozen_params(model):
            with monkeypatch.context() as patch:  # a first forward finds the ReLU outputs
                patch.setattr(T, "relu", counted_relu)
                patch.setattr(M, "relu", counted_relu)
                objective()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                loss = objective()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        held = tape(loss)
        itemsize = np.dtype(spec.dtype).itemsize
        weights = [layer.weight.data.shape for layer in batch_norms(model)]
        weights += [mod.weight.data.shape for mod in model.ewas_modules]
        folded = sum(layer.weight.data.nbytes + layer.gamma.data.nbytes
                     for layer in batch_norms(model))
        selected = [(mod.weight.data.shape[0], batch) for mod in model.ewas_modules]
        relu_elements = sum(out.size for out in relu_outs)
        assert kept <= relu_elements + folded + 2048 * len(held.entries)
        smallest = min(out.nbytes for out in relu_outs)
        large = [a for a in held.arrays.values() if a.nbytes >= smallest // itemsize]
        assert sum(a.dtype == np.bool_ for a in large) == len(relu_outs)
        assert all(a.dtype == np.bool_ or a.shape in weights for a in large)
        assert not any(a.shape in selected for a in held.arrays.values())
        assert relu_elements * itemsize > folded  # what a kept output would cost

    # scaling-module hosts for FOLD_SPECS, one early and one late
    HOSTS = {"small_cnn": ("block1", "block3"), "resnet18_like": ("layer2", "layer15")}

    @pytest.mark.parametrize("mask_mode", ["inference", "training"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_input_gradient_matches_a_forward_that_drops_nothing(self, arch, dtype, lam,
                                                                 mask_mode, monkeypatch):
        """A captured activation lives as long as the capture, so capturing
        every point keeps each tapped ReLU output; the input gradient is the
        same bit for bit."""
        spec = replace(FOLD_SPECS[arch], dtype=dtype, insertion_points=self.HOSTS[arch])
        model = randomize_batch_norms(spec.build(33), 34)
        rng = np.random.default_rng(35)
        x = rng.uniform(0, 1, (6, *spec.input_shape)).astype(dtype)
        y = rng.integers(0, spec.num_classes, 6)
        relu, runs = T.relu, []
        for capture in ((), model.INSERTION_POINTS):
            outputs = []

            def recorded_relu(*args, **kwargs):
                out = relu(*args, **kwargs)
                outputs.append(weakref.ref(out.data))
                return out

            xt = T.Tensor(x, requires_grad=True)
            with frozen_params(model), monkeypatch.context() as patch:
                patch.setattr(T, "relu", recorded_relu)
                patch.setattr(M, "relu", recorded_relu)
                out = model.forward(xt, labels=y, mask_mode=mask_mode, capture=capture)
                loss = T.softmax_cross_entropy(out.logits, y)
                for scores in out.alc_scores:
                    loss = T.add(loss, T.mul_scalar(T.softmax_cross_entropy(scores, y), lam))
                live = sum(ref() is not None for ref in outputs)
                T.backward(loss)
            runs.append((xt.grad.tobytes(), live))
        (got, live), (want, live_when_captured) = runs
        assert got == want
        assert live < live_when_captured


class TestTrainTape:
    """A train step's forward: every parameter requires grad."""

    @pytest.mark.parametrize("arch", sorted(FOLD_SPECS))
    def test_scaling_keeps_its_input_and_no_selected_mask(self, arch, monkeypatch):
        """With the weight requiring grad, each scaling's closure keeps z's
        array for the weight gradient, the weight and the indices, and no
        array on the tape has a selected mask's (C*H*W, B) shape."""
        spec = replace(FOLD_SPECS[arch], insertion_points=TestFrozenTape.HOSTS[arch])
        model = spec.build(36)
        rng = np.random.default_rng(37)
        batch = 6
        x = rng.uniform(0, 1, (batch, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, batch)
        scalings, take_columns = [], S.take_columns

        def recorded(z, w, idx):
            out = take_columns(z, w, idx)
            scalings.append((z.data, w.data, idx, out))
            return out

        monkeypatch.setattr(S, "take_columns", recorded)
        out = model.forward(x, labels=y, train=True, mask_mode="training")
        loss = T.softmax_cross_entropy(out.logits, y)
        for scores in out.alc_scores:
            loss = T.add(loss, T.softmax_cross_entropy(scores, y))
        held = tape(loss)
        assert len(scalings) == len(spec.insertion_points)
        for z, w, idx, scaled in scalings:
            kept = closure(scaled._node).arrays
            assert set(kept) == {id(owner(z)), id(owner(w)), id(owner(idx))}
            assert not any(a.shape == (w.shape[0], batch) for a in held.arrays.values())


def batch_innermost(a: np.ndarray) -> bool:
    """A (B, C, H, W) array is a view of a C-contiguous (C, H, W, B) one."""
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


# (spec, hosts); every tap is at least 2x2, since at 1x1 the two layouts coincide
LAYOUT_SPECS = {
    "small_cnn": (M.ModelSection(width=4, input_shape=(2, 8, 8)), ("block2", "block4")),
    "resnet18_like": (replace(RESNET, input_shape=(3, 16, 16)), ("layer5", "layer15")),
}


class TestBatchInnermostLayout:
    """Activations go from conv to conv batch-innermost, with no transposing copy."""

    @pytest.mark.parametrize("mode", ["train", "eval_no_grad", "attack_step"])
    @pytest.mark.parametrize("arch", sorted(LAYOUT_SPECS))
    def test_taps_and_masks_are_batch_innermost(self, arch, mode, monkeypatch):
        spec, hosts = LAYOUT_SPECS[arch]
        model = randomize_batch_norms(replace(spec, insertion_points=hosts).build(20), 21)
        scaled, take_columns = [], S.take_columns
        monkeypatch.setattr(S, "take_columns",
                            lambda *args: scaled.append(take_columns(*args)) or scaled[-1])
        rng = np.random.default_rng(22)
        x = rng.uniform(0, 1, (4, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, 4)
        taps = model.INSERTION_POINTS
        if mode == "train":
            out = model.forward(x, labels=y, train=True, mask_mode="training", capture=taps)
        elif mode == "eval_no_grad":
            with T.no_grad():
                out = model.forward(x, capture=taps)
        else:  # a pgd step: the input requires grad, the parameters are frozen
            with frozen_params(model):
                out = model.forward(T.Tensor(x, requires_grad=True), labels=y, capture=taps)
        assert sorted(out.captured) == sorted(taps) and len(scaled) == len(hosts)
        for name, h in [*out.captured.items(), *(("scaled", s) for s in scaled)]:
            assert batch_innermost(h.data), name

    @pytest.mark.parametrize("arch", sorted(LAYOUT_SPECS))
    def test_gradients_reach_every_conv_batch_innermost(self, arch, monkeypatch):
        """Through the pool, the residual adds and the classifier heads alike."""
        spec, hosts = LAYOUT_SPECS[arch]
        model = replace(spec, insertion_points=hosts).build(23)
        grads = []

        def conv2d(*args):
            out = T.conv2d(*args)
            grad_fn = out._grad_fn
            out._grad_fn = lambda g: grads.append(g) or grad_fn(g)
            return out

        monkeypatch.setattr(M, "conv2d", conv2d)
        rng = np.random.default_rng(24)
        x = rng.uniform(0, 1, (4, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, 4)
        out = model.forward(x, labels=y, train=True, mask_mode="training")
        loss = T.softmax_cross_entropy(out.logits, y)
        for scores in out.alc_scores:
            loss = loss + T.softmax_cross_entropy(scores, y)
        T.backward(loss)
        assert len(grads) == len(batch_norms(model))  # one conv per pair
        assert all(batch_innermost(g) for g in grads)


class TestInsertEwas:
    def test_forward_returns_scores(self):
        model = M.ModelSection(width=2).build(3)
        M.insert_ewas(model, "block4", seed=4)
        out = model.forward(np.zeros((2, 1, 8, 8)), labels=np.array([0, 1]),
                            mask_mode="training")
        assert len(out.alc_scores) == 1
        assert out.alc_scores[0].data.shape == (2, 3)

    def test_two_insertions_two_score_sets(self):
        model = M.ModelSection(width=2).build(3)
        M.insert_ewas(model, "block3", seed=4)
        M.insert_ewas(model, "block4", seed=5)
        out = model.forward(np.zeros((1, 1, 8, 8)), mask_mode="inference")
        assert len(out.alc_scores) == 2

    def test_scores_follow_module_order_not_tap_order(self, monkeypatch):
        """Hosts listed out of forward order: entry i is still module i's scores."""
        model = M.ModelSection(width=4, insertion_points=("block4", "block4", "block3")
                               ).build(20)
        inputs, ewas_forward = {}, M.ewas_forward

        def record(z, weight, *args):
            inputs[id(weight)] = z
            return ewas_forward(z, weight, *args)

        monkeypatch.setattr(M, "ewas_forward", record)
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 1, (4, 1, 8, 8))
        y = rng.integers(0, 3, 4)
        out = model.forward(x, labels=y, train=True, mask_mode="training")
        assert len(out.alc_scores) == 3
        for mod, scores in zip(model.ewas_modules, out.alc_scores):
            z = inputs[id(mod.weight)]
            expect = T.matmul(T.reshape(z, (len(x), -1)), mod.weight)
            assert scores.data.tobytes() == expect.data.tobytes()

    def test_repeated_host_keeps_two_modules(self, tmp_path):
        model = M.ModelSection(width=2, insertion_points=("block4", "block4")).build(22)
        out = model.forward(np.zeros((2, 1, 8, 8)), mask_mode="inference")
        assert len(out.alc_scores) == 2
        names = [name for name, _ in model.parameters() if name.startswith("ewas.")]
        assert names == ["ewas.0.block4.weight", "ewas.1.block4.weight"]
        M.save_checkpoint(model, tmp_path / "a.ckpt")
        M.save_checkpoint(M.load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_spec_lists_every_host_and_survives_a_round_trip(self, tmp_path):
        section = M.ModelSection(width=2, insertion_points=("block4",))
        model = section.build(5)
        M.insert_ewas(model, "block3", seed=6)
        assert model.spec.insertion_points == ("block4", "block3")
        assert section.insertion_points == ("block4",)  # a new object, not a mutation
        M.save_checkpoint(model, tmp_path / "m.ckpt")
        assert M.load_checkpoint(tmp_path / "m.ckpt").spec == model.spec

    def test_unknown_layer_lists_valid_points(self):
        model = M.ModelSection(width=2).build(0)
        with pytest.raises(ConfigError, match="block1, block2, block3, block4"):
            M.insert_ewas(model, "blockX")

    def test_identity_mask_equals_uninserted_model(self):
        x = np.random.default_rng(6).uniform(0, 1, (3, 1, 8, 8))
        plain = M.ModelSection(width=4).build(7)
        wrapped = M.ModelSection(width=4).build(7)
        M.insert_ewas(wrapped, "block2")
        wrapped.ewas_modules[0].weight.data[...] = 1.0
        a = plain.forward(x).logits.data
        b = wrapped.forward(x, mask_mode="inference").logits.data
        assert a.tobytes() == b.tobytes()

    def test_eval_forward_is_pure(self):
        model = M.ModelSection(width=2).build(8)
        M.insert_ewas(model, "block4", seed=9)
        x = np.random.default_rng(10).uniform(0, 1, (4, 1, 8, 8))
        before = [(n, t.data.copy()) for n, t in model.parameters()]
        stats_before = [(n, a.copy()) for n, a in model.state_arrays()]
        o1 = model.forward(x, mask_mode="inference").logits.data
        o2 = model.forward(x, mask_mode="inference").logits.data
        assert o1.tobytes() == o2.tobytes()
        for (_, old), (_, new) in zip(before, model.parameters()):
            assert old.tobytes() == new.data.tobytes()
        for (_, old), (_, new) in zip(stats_before, model.state_arrays()):
            assert old.tobytes() == new.tobytes()


CIFAR = M.ModelSection(arch="resnet18_like", width=16, input_shape=(3, 32, 32),
                       num_classes=10, insertion_points=("layer15",))


def traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpoint:
    def _trained_like_model(self, dtype=np.float64):
        model = M.ModelSection(width=2, dtype=np.dtype(dtype).name).build(11)
        M.insert_ewas(model, "block4", seed=12)
        # dirty the BN running stats so persistence of state is exercised
        x = np.random.default_rng(13).uniform(0, 1, (4, 1, 8, 8)).astype(dtype)
        model.forward(x, train=True, mask_mode="inference")
        return model

    def test_round_trip_bit_exact_float32_model(self, tmp_path):
        model = self._trained_like_model(dtype=np.float32)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(model, path, epoch=5, seed=1, config_digest="abc")
        loaded = M.load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()
        for (n1, a1), (n2, a2) in zip(model.state_arrays(), loaded.state_arrays()):
            assert n1 == n2 and a1.tobytes() == a2.tobytes()
        assert loaded.checkpoint_meta == {"epoch": 5, "seed": 1, "config_digest": "abc"}

    def test_round_trip_bit_exact_float64_flag(self, tmp_path):
        model = self._trained_like_model()
        path = tmp_path / "m64.ckpt"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        for (_, t1), (_, t2) in zip(model.parameters(), loaded.parameters()):
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_float32_payload_of_a_float64_model_still_loads(self, tmp_path):
        """Older files stored float64 models in float32; they load, widened."""
        model = self._trained_like_model(dtype=np.float32)
        path = tmp_path / "old.ckpt"
        M.save_checkpoint(model, path)
        blob = path.read_bytes()[:-4].replace(b'"dtype":"float32"', b'"dtype":"float64"')
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
        loaded = M.load_checkpoint(path)
        assert loaded.dtype is np.float64
        for (n1, a1), (n2, a2) in zip(M._param_records(model), M._param_records(loaded),
                                      strict=True):
            assert n1 == n2 and a2.dtype == np.float64
            assert a2.tobytes() == a1.astype(np.float64).tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        model = self._trained_like_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        M.save_checkpoint(model, p1, epoch=7, seed=3, config_digest="xyz")
        M.save_checkpoint(M.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("spec,host", [(M.ModelSection(width=2), "block4"),
                                           (RESNET, "layer15")],
                             ids=["small_cnn", "resnet18_like"])
    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch, spec, host):
        """The file overwrites every array, so loading builds with zeros; and
        ``insert_ewas`` sizes a module from ``tap_shapes``, so neither building
        nor loading runs a forward."""

        def fail(*args, **kwargs):
            raise AssertionError("a forward ran or initial weights were drawn")

        with monkeypatch.context() as patch:
            patch.setattr(M.Model, "forward", fail)
            model = spec.build(21)
            M.insert_ewas(model, host, seed=22)
        path = tmp_path / "n.ckpt"
        M.save_checkpoint(model, path)
        monkeypatch.setattr(M.Model, "forward", fail)
        monkeypatch.setattr(np.random, "default_rng", fail)
        loaded = M.load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(model.parameters(), loaded.parameters(), strict=True):
            assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()

    def test_single_byte_corruption_detected(self, tmp_path):
        model = self._trained_like_model()
        path = tmp_path / "c.ckpt"
        M.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointChecksumError):
            M.load_checkpoint(path)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAPKG!" + b"\x00" * 64)
        with pytest.raises(CheckpointMagicError):
            M.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = self._trained_like_model()
        path = tmp_path / "v.ckpt"
        M.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field follows the magic
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            M.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = self._trained_like_model()
        path = tmp_path / "t.ckpt"
        M.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointTruncatedError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    def test_every_flipped_byte_raises_checkpoint_error(self, tmp_path, mask):
        model = self._trained_like_model()
        path = tmp_path / "f.ckpt"
        M.save_checkpoint(model, path)
        blob = path.read_bytes()
        bad = tmp_path / "flipped.ckpt"
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            bad.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                M.load_checkpoint(bad)

    @pytest.mark.parametrize("extra", ["duplicate", "unknown"])
    def test_duplicate_or_unknown_record_rejected(self, tmp_path, monkeypatch, extra):
        model = self._trained_like_model()
        records = M._param_records(model)
        added = records[0] if extra == "duplicate" else ("bogus.weight", records[0][1])
        path = tmp_path / "x.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(M, "_param_records", lambda _m: records + [added])
            M.save_checkpoint(model, path)
        with pytest.raises(CheckpointContentError, match=added[0]):
            M.load_checkpoint(path)

    def test_round_trip_preserves_evaluation(self, tmp_path):
        model = self._trained_like_model()
        x = np.random.default_rng(14).uniform(0, 1, (8, 1, 8, 8))
        path = tmp_path / "e.ckpt"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        a = model.forward(x, mask_mode="inference").logits.data
        b = loaded.forward(x, mask_mode="inference").logits.data
        assert a.tobytes() == b.tobytes()

    def test_load_peak_is_at_most_two_and_a_half_files(self, tmp_path):
        """The file's bytes are held once and every payload is read through a
        view of them into the model's zeroed array. Copies of the body and of
        each record, and a cast per record, held 4.4 files."""
        path = tmp_path / "l.ckpt"
        M.save_checkpoint(replace(CIFAR, dtype="float32").build(0), path)
        assert traced_peak(lambda: M.load_checkpoint(path)) <= 2.5 * path.stat().st_size

    def test_save_peak_is_at_most_one_and_a_half_files(self, tmp_path):
        """Each array's bytes are appended to one buffer, which is checksummed
        and written as it is; ``tobytes`` and ``bytes(buf)`` copies held 2.1
        files."""
        model = CIFAR.build(0)
        path = tmp_path / "s.ckpt"
        assert traced_peak(lambda: M.save_checkpoint(model, path)) <= 1.5 * path.stat().st_size

    @pytest.mark.parametrize("spec,seed,modules,digest", [
        (M.ModelSection(width=2), 11, [("block3", 12), ("block4", 13)],
         "c9bcbd9f49def13cbba6b22d5a636275a9ead95a62bd1ce5fc3648adbc2f9022"),
        (replace(RESNET, dtype="float32"), 1, [("layer15", 2)],
         "95bce69bd02f16708d2d97337bfefbacc2de4a1c8fe332f2a5703cf8f5ae5f66"),
    ], ids=["small_cnn", "resnet18_like"])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, spec, seed, modules, digest):
        """Initial weights, record order and metadata of both architectures; the
        float64 model's payload is float64, the float32 model's float32."""
        model = spec.build(seed)
        for host, module_seed in modules:
            M.insert_ewas(model, host, seed=module_seed)
        path = tmp_path / "p.ckpt"
        M.save_checkpoint(model, path, epoch=2, seed=7, config_digest="d")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
