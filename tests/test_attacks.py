"""Attack semantics: projection, objectives, FGSM/PGD/margin equivalences."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ewas import attacks as A
from ewas import models as M
from ewas import tensor as T
from ewas.config import load_run_config
from ewas.errors import ConfigError, ShapeError

from _gradcheck import assert_grad_matches, tsum

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class LinearModel:
    """Minimal flat linear classifier used as a closed-form oracle target."""

    dtype = np.float64
    ewas_modules = ()

    def __init__(self, w):
        self.w = T.Tensor(np.asarray(w, dtype=np.float64), requires_grad=True)

    def forward(self, x, labels=None, train=False, mask_mode="inference", capture=()):
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float64))
        flat = T.reshape(x, (x.data.shape[0], -1))
        return M.ForwardOut(T.matmul(flat, self.w), [], {})

    def parameters(self):
        return [("w", self.w)]


def small_ewas_model(seed=0, width=2):
    model = M.ModelSection(width=width).build(seed)
    M.insert_ewas(model, "block4", seed=seed + 1)
    return model


def objective(model, x, y, lam):
    """The CE objective ``pgd`` takes at ``x``: its inference forward, then ``_objective``."""
    out = model.forward(x, labels=y, train=False, mask_mode="inference")
    return A._objective(out, y, "cross_entropy", lam, 0.0)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends to the returned list."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestProject:
    def test_inside_ball_unchanged(self):
        x = np.array([0.5, 0.52])
        out = A.project_linf_box(x, np.array([0.5, 0.5]), 0.1)
        np.testing.assert_array_equal(out, x)

    def test_ball_clamp(self):
        out = A.project_linf_box(np.array([0.9]), np.array([0.5]), 0.1)
        np.testing.assert_array_equal(out, [0.6])

    def test_box_dominates(self):
        out = A.project_linf_box(np.array([-0.3]), np.array([0.0]), 0.5)
        np.testing.assert_array_equal(out, [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            A.project_linf_box(np.zeros(2), np.zeros(3), 0.1)


class TestCwMarginLoss:
    def test_direct_formula(self):
        loss = A.cw_margin_loss(T.Tensor([[5.0, 1.0, 0.0]]), [0], kappa=0.0)
        assert float(loss.data) == pytest.approx(4.0)

    def test_clamped_at_minus_kappa(self):
        loss = A.cw_margin_loss(T.Tensor([[1.0, 5.0]]), [0], kappa=0.0)
        assert float(loss.data) == pytest.approx(0.0)

    def test_inside_clamp_range(self):
        loss = A.cw_margin_loss(T.Tensor([[1.0, 5.0]]), [0], kappa=10.0)
        assert float(loss.data) == pytest.approx(-4.0)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            A.cw_margin_loss(T.Tensor([[1.0]]), [0])


ROW_LOSSES = {
    "cross_entropy": lambda z, y, reduction: T.softmax_cross_entropy(z, y, reduction),
    "cw_margin": lambda z, y, reduction: A.cw_margin_loss(z, y, 0.5, reduction),
}


@pytest.mark.parametrize("name", sorted(ROW_LOSSES))
class TestReductionNone:
    def test_row_mean_is_bitwise_the_mean(self, name):
        loss = ROW_LOSSES[name]
        rng = np.random.default_rng(70)
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        rows = loss(T.Tensor(z), y, "none")
        assert rows.data.shape == (6,)
        assert rows.data.mean().tobytes() == loss(T.Tensor(z), y, "mean").data.tobytes()

    def test_gradient_with_vector_upstream(self, name):
        loss = ROW_LOSSES[name]
        rng = np.random.default_rng(71)
        z = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        y = np.array([0, 3, 1, 2, 1])
        upstream = T.Tensor(rng.normal(size=5))

        def forward(logits):
            return tsum(T.mul(loss(logits, y, "none"), upstream))

        T.backward(forward(z))
        assert_grad_matches(lambda: float(forward(T.Tensor(z.data)).data),
                            z.data, z.grad, what=name)

    def test_unknown_reduction_rejected(self, name):
        with pytest.raises(ValueError):
            ROW_LOSSES[name](T.Tensor(np.zeros((2, 3))), [0, 1], "sum")


class TestAttackObjective:
    def test_lambda_zero_is_backbone_ce_bitexact(self):
        model = small_ewas_model()
        x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1, 8, 8)))
        y = np.array([0, 1])
        combined = objective(model, x, y, 0.0)
        out = model.forward(x.data, labels=y, train=False, mask_mode="inference")
        backbone = T.softmax_cross_entropy(out.logits, y)
        assert combined.data.tobytes() == backbone.data.tobytes()

    def test_lambda_one_sums_hand_computed_terms(self):
        model = small_ewas_model(seed=5)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (3, 1, 8, 8))
        y = np.array([0, 1, 2])
        out = model.forward(x, labels=y, train=False, mask_mode="inference")
        ce = float(T.softmax_cross_entropy(out.logits, y).data)
        alc_ce = float(T.softmax_cross_entropy(out.alc_scores[0], y).data)
        total = objective(model, T.Tensor(x), y, 1.0)
        assert float(total.data) == pytest.approx(ce + alc_ce, rel=1e-12)

    def test_backbone_term_independent_of_lambda(self):
        model = small_ewas_model(seed=6)
        x = np.random.default_rng(2).uniform(0, 1, (2, 1, 8, 8))
        y = np.array([1, 2])
        out = model.forward(x, labels=y, train=False, mask_mode="inference")
        backbone = float(T.softmax_cross_entropy(out.logits, y).data)
        alc = float(T.softmax_cross_entropy(out.alc_scores[0], y).data)
        for lam in (0.5, 2.0, 10.0):
            total = float(objective(model, T.Tensor(x), y, lam).data)
            assert total - lam * alc == pytest.approx(backbone, rel=1e-9)

    def test_lambda_without_module_rejected(self, monkeypatch):
        """``pgd`` checks for a module once, before its random start or any forward."""
        model = M.ModelSection(width=2).build(0)
        forwards = count_calls(monkeypatch, model, "forward")
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2, random_start=True,
                             lambda_attack=0.5)
        with pytest.raises(ConfigError, match=r"^lambda_attack: 0\.5 > 0"):
            A.pgd(model, np.zeros((2, 1, 8, 8)), np.array([0, 1]), cfg)
        assert forwards == []

    def test_two_modules_each_weighted_by_lambda(self):
        model = M.ModelSection(width=2).build(16)
        M.insert_ewas(model, "block3", seed=17)
        M.insert_ewas(model, "block4", seed=18)
        x = np.random.default_rng(19).uniform(0, 1, (4, 1, 8, 8))
        y = np.array([0, 1, 2, 1])
        out = model.forward(x, labels=y, train=False, mask_mode="inference")

        def ce(scores):
            return float(T.softmax_cross_entropy(scores, y).data)

        lam = 0.5
        expect = ce(out.logits) + lam * (ce(out.alc_scores[0])
                                         + ce(out.alc_scores[1]))
        total = objective(model, T.Tensor(x), y, lam)
        assert float(total.data) == pytest.approx(expect, rel=1e-12)


class TestRequireModules:
    def test_zero_lambda_reads_no_modules(self):
        A.require_modules(object(), "lambda", 0.0)

    @pytest.mark.parametrize("hosts", [
        M.ModelSection(width=2).build(0).ewas_modules, M.ModelSection(width=2).insertion_points,
    ], ids=["ewas_modules", "insertion_points"])
    def test_positive_lambda_names_the_key(self, hosts):
        with pytest.raises(ConfigError,
                           match=r"^train\.lambda: 0\.5 > 0 requires a scaling module"):
            A.require_modules(hosts, "train.lambda", 0.5)


class TestFgsm:
    """FGSM is the ``pgd`` preset of one full-epsilon step without a random start,
    the ``AttackConfig`` defaults when ``step_size`` is ``epsilon``."""

    def test_zero_gradient_keeps_input(self):
        # uniform logits regardless of input: weights all zero
        model = LinearModel(np.zeros((64, 2)))
        x = np.random.default_rng(4).uniform(0.2, 0.8, (3, 1, 8, 8))
        y = np.array([0, 1, 0])
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.1)
        adv = A.pgd(model, x, y, cfg)
        assert adv.x_adv.tobytes() == x.tobytes()

    def test_positive_gradient_full_step(self):
        w = np.zeros((64, 2))
        w[0, 1] = 1.0  # raising pixel 0 raises the wrong-class logit
        model = LinearModel(w)
        x = np.full((1, 1, 8, 8), 0.5)
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.1)
        adv = A.pgd(model, x, np.array([0]), cfg)
        assert adv.x_adv[0, 0, 0, 0] == pytest.approx(0.6)


class TestPgd:
    def test_epsilon_zero_identity(self):
        model = small_ewas_model(seed=9)
        x = np.random.default_rng(6).uniform(0, 1, (2, 1, 8, 8))
        y = np.array([0, 1])
        for steps in (1, 4):
            cfg = A.AttackConfig(epsilon=0.0, step_size=0.01, steps=steps,
                                 random_start=True, seed=1)
            adv = A.pgd(model, x, y, cfg)
            assert adv.x_adv.tobytes() == x.tobytes()

    @pytest.mark.parametrize("labels", [[0.9, 1.2], [True, False]], ids=["fractional", "bool"])
    def test_non_integer_labels_raise(self, labels):
        """They are not truncated to classes 0 and 1 and attacked."""
        x = np.random.default_rng(6).uniform(0, 1, (2, 1, 8, 8))
        with pytest.raises(IndexError, match="integers"):
            A.pgd(small_ewas_model(seed=9), x, np.array(labels),
                  A.AttackConfig(epsilon=0.1, step_size=0.05, steps=1))

    def test_linear_model_reaches_ball_corner(self):
        """Closed form: CE on w.x grows along sign((w_other - w_y)) so the
        optimum inside the ball is the sign-aligned corner."""
        rng = np.random.default_rng(7)
        w = rng.normal(size=(64, 2))
        model = LinearModel(w)
        x = np.full((1, 1, 8, 8), 0.5)
        y = np.array([0])
        eps = 0.05
        direction = np.sign(w[:, 1] - w[:, 0]).reshape(1, 1, 8, 8)
        corner = np.clip(x + eps * direction, 0, 1)
        cfg = A.AttackConfig(epsilon=eps, step_size=eps, steps=1, random_start=False)
        adv = A.pgd(model, x, y, cfg)
        np.testing.assert_allclose(adv.x_adv, corner, atol=1e-12)
        # smaller steps converge to the same corner
        cfg = A.AttackConfig(epsilon=eps, step_size=eps / 4, steps=8, random_start=False)
        adv = A.pgd(model, x, y, cfg)
        np.testing.assert_allclose(adv.x_adv, corner, atol=1e-12)

    @pytest.mark.parametrize("random_start,loss_kind", [(True, "cross_entropy"),
                                                        (False, "cw_margin")])
    def test_one_forward_per_iterate(self, random_start, loss_kind, monkeypatch):
        """``steps`` forwards and backwards for the gradients, then one scoring
        forward; the caller's float64 ``x``, which ``x0`` aliases, keeps its bytes."""
        model = small_ewas_model(seed=20)
        x = np.random.default_rng(21).uniform(0, 1, (4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        before = x.tobytes()
        assert np.asarray(x, dtype=model.dtype) is x
        forwards = count_calls(monkeypatch, model, "forward")
        backwards = count_calls(monkeypatch, A, "backward")  # pgd's tensor.backward
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.03, steps=3, random_start=random_start,
                             loss_kind=loss_kind, lambda_attack=0.5, seed=4)
        A.pgd(model, x, y, cfg)
        assert (len(forwards), len(backwards)) == (cfg.steps + 1, cfg.steps)
        assert x.tobytes() == before

    def test_invariants_on_random_instances(self):
        model = small_ewas_model(seed=10)
        rng = np.random.default_rng(8)
        for trial in range(10):
            x = rng.uniform(0, 1, (5, 1, 8, 8))
            y = rng.integers(0, 3, size=5)
            eps = float(rng.uniform(0.01, 0.2))
            cfg = A.AttackConfig(epsilon=eps, step_size=eps / 3, steps=3,
                                 random_start=True, lambda_attack=0.01,
                                 seed=trial)
            adv = A.pgd(model, x, y, cfg)
            delta = adv.x_adv - x
            assert np.abs(delta).max() <= eps + np.spacing(1.0 + eps)
            assert adv.x_adv.min() >= 0.0 and adv.x_adv.max() <= 1.0

    def test_deterministic_given_seed(self):
        model = small_ewas_model(seed=11)
        x = np.random.default_rng(9).uniform(0, 1, (3, 1, 8, 8))
        y = np.array([0, 1, 2])
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.03, steps=4,
                             random_start=True, seed=17)
        a = A.pgd(model, x, y, cfg)
        b = A.pgd(model, x, y, cfg)
        assert a.x_adv.tobytes() == b.x_adv.tobytes()
        np.testing.assert_array_equal(a.success, b.success)
        np.testing.assert_array_equal(a.loss, b.loss)

    def test_never_mutates_model(self):
        model = small_ewas_model(seed=12)
        x = np.random.default_rng(10).uniform(0, 1, (4, 1, 8, 8))
        y = np.array([0, 1, 2, 0])
        params_before = [t.data.copy() for _, t in model.parameters()]
        stats_before = [a.copy() for _, a in model.state_arrays()]
        flags_before = [t.requires_grad for _, t in model.parameters()]
        A.pgd(model, x, y, A.AttackConfig(epsilon=0.1, step_size=0.05, steps=3,
                                          random_start=True, lambda_attack=0.5))
        for old, (_, t) in zip(params_before, model.parameters()):
            assert old.tobytes() == t.data.tobytes()
            assert t.grad is None
        for old, (_, a) in zip(stats_before, model.state_arrays()):
            assert old.tobytes() == a.tobytes()
        assert flags_before == [t.requires_grad for _, t in model.parameters()]

    def test_mask_reselected_each_iteration(self):
        """Moving the input re-runs inference-mode selection every step; the
        run must stay well-defined even when the winning class flips."""
        model = small_ewas_model(seed=13)
        x = np.random.default_rng(11).uniform(0, 1, (6, 1, 8, 8))
        y = np.array([0, 1, 2, 0, 1, 2])
        cfg = A.AttackConfig(epsilon=0.3, step_size=0.1, steps=6, random_start=False)
        adv = A.pgd(model, x, y, cfg)
        assert np.all(np.isfinite(adv.x_adv))


    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "cw_margin"])
    def test_nan_head_weight_gives_non_finite_loss_everywhere(self, loss_kind, lam):
        model = small_ewas_model(seed=15)
        dict(model.parameters())["head.weight"].data[0, 0] = np.nan
        x = np.random.default_rng(14).uniform(0, 1, (4, 1, 8, 8))
        y = np.array([0, 1, 2, 1])
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2,
                             loss_kind=loss_kind, lambda_attack=lam)
        adv = A.pgd(model, x, y, cfg)
        assert not np.isfinite(adv.loss).any()


    def test_second_step_does_not_hold_the_first_steps_graph(self):
        model = M.ModelSection(arch="resnet18_like", width=4, input_shape=(3, 16, 16),
                               num_classes=5, insertion_points=("layer15",)).build(2)
        x = np.random.default_rng(4).uniform(0, 1, (16, 3, 16, 16))
        y = np.arange(16) % 5

        def peak(steps):
            cfg = A.AttackConfig(epsilon=8 / 255, step_size=2 / 255, steps=steps,
                                 random_start=False)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                A.pgd(model, x, y, cfg)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        one, two = peak(1), peak(2)
        # Holding step 1's graph through step 2 adds a third of ``one`` or more.
        assert two <= 1.1 * one


class TestCwAttack:
    """The C&W attack is the ``pgd`` preset ``loss_kind="cw_margin"``."""

    def test_epsilon_zero_identity(self):
        model = small_ewas_model(seed=14)
        x = np.random.default_rng(12).uniform(0, 1, (2, 1, 8, 8))
        y = np.array([0, 1])
        cfg = A.AttackConfig(epsilon=0.0, step_size=0.01, steps=3, loss_kind="cw_margin")
        adv = A.pgd(model, x, y, cfg)
        assert adv.x_adv.tobytes() == x.tobytes()

    def test_margin_decreases_monotonically_on_linear_model(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(64, 2))
        model = LinearModel(w)
        x = np.full((1, 1, 8, 8), 0.5)
        y = np.array([0])
        margins = []
        for steps in range(1, 6):
            cfg = A.AttackConfig(epsilon=0.2, step_size=0.02, steps=steps,
                                 loss_kind="cw_margin", kappa=50.0)
            adv = A.pgd(model, x, y, cfg)
            logits = adv.x_adv.reshape(1, -1) @ w
            margins.append(float(logits[0, 0] - logits[0, 1]))
        assert all(b < a for a, b in zip(margins, margins[1:]))

    def test_default_preset_matches_reference_settings(self):
        cfg = load_run_config(CONFIGS / "cifar10-at-ewas.json").attack_presets["cw30"]
        assert cfg.steps == 30 and not cfg.random_start
        assert cfg.epsilon == pytest.approx(8 / 255)
        assert cfg.step_size == pytest.approx(2 / 255)
        assert cfg.loss_kind == "cw_margin"


class TestConfigValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            A.AttackConfig(epsilon=-0.1, step_size=0.01)

    def test_bad_loss_kind(self):
        with pytest.raises(ConfigError):
            A.AttackConfig(epsilon=0.1, step_size=0.01, loss_kind="hinge")

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            A.AttackConfig(epsilon=0.1, step_size=0.01, steps=0)

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            A.AttackConfig(epsilon=0.1, step_size=0.01, lambda_attack=-1.0)
