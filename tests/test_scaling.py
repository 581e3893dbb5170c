"""Scaling-module semantics: scores, mask selection, elementwise scaling."""

import numpy as np
import pytest

from ewas import scaling as S
from ewas import tensor as T
from ewas.errors import ModeError, ShapeError

from _gradcheck import assert_grad_matches, tsum


def make_weight(chw, k, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(chw, k))
    return T.Tensor(w, requires_grad=requires_grad)


def scalar_oracle(z, theta, labels, mode):
    """Independent three-step reimplementation with explicit loops.

    flatten (channel-major, row, column) -> dot with each weight column
    -> per-sample column pick -> elementwise product.
    """
    b, c, h, w = z.shape
    chw = c * h * w
    flat = np.zeros((b, chw))
    for n in range(b):
        i = 0
        for ci in range(c):
            for hi in range(h):
                for wi in range(w):
                    flat[n, i] = z[n, ci, hi, wi]
                    i += 1
    scores = np.zeros((b, theta.shape[1]))
    for n in range(b):
        for k in range(theta.shape[1]):
            scores[n, k] = sum(flat[n, d] * theta[d, k] for d in range(chw))
    scaled = np.zeros_like(z)
    for n in range(b):
        if mode == "training":
            pick = labels[n]
        else:
            pick = int(np.argmax(scores[n]))  # first max = lowest index
        mask = theta[:, pick].reshape(c, h, w)
        scaled[n] = z[n] * mask
    return scaled, scores


def ones_like_activation(b, chw_shape):
    """An all-ones activation: its scaled output is the selected mask, exactly."""
    return T.Tensor(np.ones((b, *chw_shape)))


class TestAlcScore:
    def test_zero_activation(self):
        weight = make_weight(12, 3)
        z = T.Tensor(np.zeros((2, 3, 2, 2)))
        _, scores = S.ewas_forward(z, weight, mode="inference")
        np.testing.assert_array_equal(scores.data, np.zeros((2, 3)))

    def test_identity_weights(self):
        z = np.random.default_rng(1).normal(size=(2, 1, 2, 2))
        weight = T.Tensor(np.eye(4))
        _, scores = S.ewas_forward(T.Tensor(z), weight, mode="inference")
        np.testing.assert_array_equal(scores.data, z.reshape(2, 4))

    def test_dimension_mismatch_names_expected_size(self):
        weight = make_weight(10, 3)
        with pytest.raises(ShapeError, match=r"\(10, 3\)"):
            S.ewas_forward(T.Tensor(np.zeros((1, 3, 2, 2))), weight, mode="inference")

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 2, 2, 3))
        weight = make_weight(12, 4, seed=3)
        _, out = S.ewas_forward(T.Tensor(z), weight, mode="inference")
        _, scores = scalar_oracle(z, weight.data, None, "inference")
        np.testing.assert_allclose(out.data, scores, atol=1e-10)


class TestSelectMask:
    def test_training_selects_label_column(self):
        weight = make_weight(8, 4, seed=4)
        mask, _ = S.ewas_forward(ones_like_activation(1, (2, 2, 2)), weight,
                                 np.array([2]), "training")
        np.testing.assert_array_equal(
            mask.data[0], weight.data[:, 2].reshape(2, 2, 2)
        )

    def test_inference_selects_argmax(self):
        weight = make_weight(4, 3, seed=5)
        weight.data += np.array([0.0, 5.0, 2.0])  # column 1 scores highest on ones
        mask, scores = S.ewas_forward(ones_like_activation(1, (1, 2, 2)), weight,
                                      mode="inference")
        assert scores.data[0].argmax() == 1
        np.testing.assert_array_equal(
            mask.data[0], weight.data[:, 1].reshape(1, 2, 2)
        )

    def test_tie_breaks_to_lowest_index(self):
        # On an all-ones activation columns 0 and 1 both score 10 exactly.
        weight = T.Tensor(np.array([[1.0, 4.0, 0.0], [2.0, 3.0, 0.0],
                                    [3.0, 2.0, 0.0], [4.0, 1.0, 1.0]]))
        mask, scores = S.ewas_forward(ones_like_activation(1, (1, 2, 2)), weight,
                                      mode="inference")
        assert scores.data[0, 0] == scores.data[0, 1] == scores.data[0].max()
        np.testing.assert_array_equal(
            mask.data[0], weight.data[:, 0].reshape(1, 2, 2)
        )

    def test_training_without_labels_rejected(self):
        weight = make_weight(4, 3)
        with pytest.raises(ModeError):
            S.ewas_forward(ones_like_activation(1, (1, 2, 2)), weight, None, "training")

    def test_unknown_mode_rejected(self):
        weight = make_weight(4, 3)
        with pytest.raises(ModeError):
            S.ewas_forward(ones_like_activation(1, (1, 2, 2)), weight, None, "eval")

    def test_training_ignores_scores_inference_ignores_labels(self):
        weight = make_weight(4, 3, seed=7)
        weight.data += np.array([9.0, 0.0, 0.0])  # column 0 scores highest on ones
        z_shape = (1, 2, 2)
        z = ones_like_activation(1, z_shape)
        m_train, _ = S.ewas_forward(z, weight, np.array([2]), "training")
        np.testing.assert_array_equal(
            m_train.data[0], weight.data[:, 2].reshape(z_shape)
        )
        m_inf, _ = S.ewas_forward(z, weight, np.array([2]), "inference")
        np.testing.assert_array_equal(
            m_inf.data[0], weight.data[:, 0].reshape(z_shape)
        )


class TestApplyScaling:
    def test_identity_mask(self):
        z = np.random.default_rng(8).normal(size=(2, 2, 3, 3))
        out, _ = S.ewas_forward(T.Tensor(z), T.Tensor(np.ones((18, 3))), mode="inference")
        assert out.data.tobytes() == z.tobytes()

    def test_zero_mask(self):
        z = np.random.default_rng(9).normal(size=(1, 2, 2, 2))
        out, _ = S.ewas_forward(T.Tensor(z), T.Tensor(np.zeros((8, 3))), mode="inference")
        np.testing.assert_array_equal(out.data, 0.0)

    def test_product_rule_grads(self):
        rng = np.random.default_rng(10)
        z = T.Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)
        m = T.Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)
        T.backward(tsum(T.mul(z, m)))
        np.testing.assert_allclose(z.grad, m.data, rtol=1e-15)
        np.testing.assert_allclose(m.grad, z.data, rtol=1e-15)


class TestEwasForward:
    def test_zero_activation(self):
        weight = make_weight(12, 3, seed=11)
        z = T.Tensor(np.zeros((2, 3, 2, 2)))
        scaled, scores = S.ewas_forward(z, weight, mode="inference")
        np.testing.assert_array_equal(scaled.data, 0.0)
        np.testing.assert_array_equal(scores.data, 0.0)

    def test_identity_theta_training(self):
        z = np.abs(np.random.default_rng(12).normal(size=(2, 1, 2, 2))) + 0.1
        weight = T.Tensor(np.eye(4))
        y = np.array([1, 3])
        scaled, _ = S.ewas_forward(T.Tensor(z), weight, y, "training")
        for n, label in enumerate(y):
            mask = np.eye(4)[:, label].reshape(1, 2, 2)
            np.testing.assert_array_equal(scaled.data[n], z[n] * mask)

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_matches_three_step_oracle(self, mode):
        rng = np.random.default_rng(13)
        for trial in range(25):
            b, c, h, w, k = 2, rng.integers(1, 4), rng.integers(1, 4), \
                rng.integers(1, 4), rng.integers(2, 5)
            z = rng.normal(size=(b, c, h, w))
            weight = make_weight(c * h * w, k, seed=100 + trial)
            y = rng.integers(0, k, size=b)
            scaled, scores = S.ewas_forward(T.Tensor(z), weight, y, mode)
            exp_scaled, exp_scores = scalar_oracle(z, weight.data, y, mode)
            np.testing.assert_allclose(scores.data, exp_scores, atol=1e-10)
            np.testing.assert_allclose(scaled.data, exp_scaled, atol=1e-10)

    def test_column_permutation_with_relabel_invariance(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(3, 2, 2, 2))
        weight = make_weight(8, 4, seed=15)
        y = np.array([0, 2, 3])
        perm = np.array([2, 0, 3, 1])  # old class k becomes new class perm[k]
        permuted_w = np.empty_like(weight.data)
        permuted_w[:, perm] = weight.data
        permuted = T.Tensor(permuted_w)
        base, _ = S.ewas_forward(T.Tensor(z), weight, y, "training")
        moved, _ = S.ewas_forward(T.Tensor(z), permuted, perm[y], "training")
        np.testing.assert_array_equal(base.data, moved.data)

    def test_all_ones_theta_is_identity_any_mode(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(2, 2, 3, 3))
        weight = T.Tensor(np.ones((18, 5)))
        for mode, y in (("training", np.array([4, 1])), ("inference", None)):
            scaled, _ = S.ewas_forward(T.Tensor(z), weight, y, mode)
            assert scaled.data.tobytes() == z.tobytes()

    def test_gradient_two_paths_vs_fd(self):
        rng = np.random.default_rng(17)
        z_data = rng.normal(size=(2, 1, 2, 2))
        weight = make_weight(4, 3, seed=18)
        y = np.array([0, 2])

        def forward():
            z = T.Tensor(z_data)
            scaled, scores = S.ewas_forward(z, weight, y, "training")
            # loss touching both routes: scaled activations and scores
            return tsum(scaled) + 2.0 * T.softmax_cross_entropy(scores, y)

        loss = forward()
        T.backward(loss)
        assert_grad_matches(lambda: float(forward().data), weight.data,
                            weight.grad, what="alc-weight")

    def test_lambda_zero_removes_exactly_the_alc_loss_grad(self):
        rng = np.random.default_rng(19)
        z_data = rng.normal(size=(2, 1, 2, 2))
        y = np.array([1, 0])

        def grads(lam):
            weight = make_weight(4, 3, seed=20)
            z = T.Tensor(z_data)
            scaled, scores = S.ewas_forward(z, weight, y, "training")
            loss = T.tmean(T.mul(scaled, scaled))
            if lam:
                loss = loss + lam * T.softmax_cross_entropy(scores, y)
            T.backward(loss)
            return weight.grad

        weight = make_weight(4, 3, seed=20)
        z = T.Tensor(z_data)
        _, scores = S.ewas_forward(z, weight, y, "training")
        T.backward(T.softmax_cross_entropy(scores, y))
        alc_only = weight.grad

        lam = 0.7
        np.testing.assert_allclose(grads(lam) - grads(0.0), lam * alc_only,
                                   atol=1e-12)
