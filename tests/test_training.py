"""Composite losses, optimizer, schedule, training loop, evaluation."""

import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from ewas import attacks as A
from ewas import models as M
from ewas import tensor as T
from ewas import training as TR
from ewas.data import EVAL_ATTACK, stream, synth_dataset
from ewas.errors import ConfigError, NonFiniteError
from ewas.scaling import EwasModule, ewas_forward


def np_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_ce(logits, y):
    p = np_softmax(logits)
    return float(np.mean([-np.log(p[b, y[b]]) for b in range(len(y))]))


def np_kl(p, q):
    return float(np.mean([(p[b] * np.log(p[b] / q[b])).sum() for b in range(len(p))]))


def np_bce(p, y):
    vals = []
    for b in range(len(y)):
        rest = np.delete(p[b], y[b])
        vals.append(-np.log(p[b, y[b]]) - np.log(1 - rest.max()))
    return float(np.mean(vals))


class TinyScaledNet:
    """BN-free stand-in: the input itself is the hosted activation.

    Lets single-sample hand computations exercise every loss term without
    batch statistics in the way.
    """

    dtype = np.float64

    def __init__(self, shape, k, seed=0):
        rng = np.random.default_rng(seed)
        flat = int(np.prod(shape))
        self.w = T.Tensor(rng.normal(size=(flat, k)), requires_grad=True)
        self.ewas_modules = [EwasModule(
            "input", T.Tensor(rng.normal(size=(flat, k)), requires_grad=True))]
        self.num_classes = k

    def forward(self, x, labels=None, train=False, mask_mode="inference", capture=()):
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float64))
        mod = self.ewas_modules[0]
        scaled, scores = ewas_forward(x, mod.weight, labels, mask_mode)
        flat = T.reshape(scaled, (x.data.shape[0], -1))
        return M.ForwardOut(T.matmul(flat, self.w), [scores], {})

    def parameters(self):
        return [("w", self.w), ("alc", self.ewas_modules[0].weight)]


def small_model(seed=0, with_ewas=True):
    model = M.ModelSection(width=2).build(seed)
    if with_ewas:
        M.insert_ewas(model, "block4", seed=seed + 1)
    return model


@pytest.fixture
def batch():
    rng = np.random.default_rng(100)
    x = rng.uniform(0, 1, (4, 1, 8, 8))
    x_adv = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
    y = rng.integers(0, 3, size=4)
    return x, x_adv, y


class TestAtLoss:
    def test_lambda_zero_is_plain_ce_bitexact(self, batch):
        _, x_adv, y = batch
        model = small_model(seed=1)
        loss = TR.loss_terms("at", model, None, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x_adv, labels=y, train=True, mask_mode="training")
        expect = T.softmax_cross_entropy(out.logits, y)
        assert loss.data.tobytes() == expect.data.tobytes()

    def test_hand_computed_sum(self):
        net = TinyScaledNet((1, 2, 2), 3, seed=2)
        x_adv = np.random.default_rng(3).uniform(0, 1, (1, 1, 2, 2))
        y = np.array([1])
        out = net.forward(x_adv, labels=y, train=True, mask_mode="training")
        expect = np_ce(out.logits.data, y) + 0.01 * np_ce(
            out.alc_scores[0].data, y)
        loss = TR.loss_terms("at", net, None, x_adv, y, 0.01, 0.0)["total"]
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_svhn_preset_lambda_accepted(self, batch):
        _, x_adv, y = batch
        model = small_model(seed=4)
        loss = TR.loss_terms("at", model, None, x_adv, y, 0.05, 0.0)["total"]
        assert np.isfinite(float(loss.data))

    def test_lambda_without_module_rejected(self, batch):
        _, x_adv, y = batch
        with pytest.raises(ConfigError):
            TR.loss_terms("at", small_model(with_ewas=False), None, x_adv, y, 0.01, 0.0)


class TestTradesLoss:
    def test_beta_lambda_zero_is_natural_ce(self, batch):
        x, x_adv, y = batch
        model = small_model(seed=5)
        loss = TR.loss_terms("trades", model, x, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x, labels=y, train=True, mask_mode="training")
        expect = T.softmax_cross_entropy(out.logits, y)
        assert loss.data.tobytes() == expect.data.tobytes()

    def test_identical_inputs_zero_kl(self, batch):
        x, _, y = batch
        model = small_model(seed=6)
        terms = TR.loss_terms("trades", model, x, x, y, 0.01, 6.0)
        assert float(terms["kl"].data) == pytest.approx(0.0, abs=1e-14)
        assert float(terms["alc_kl"].data) == pytest.approx(0.0, abs=1e-14)

    def test_term_by_term_oracle_beta6(self):
        net = TinyScaledNet((1, 2, 2), 3, seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (2, 1, 2, 2))
        x_adv = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
        y = np.array([0, 2])
        lam, beta = 0.01, 6.0
        o_nat = net.forward(x, labels=y, train=True, mask_mode="training")
        o_adv = net.forward(x_adv, labels=y, train=True, mask_mode="training")
        s_nat, s_adv = o_nat.alc_scores[0].data, o_adv.alc_scores[0].data
        expect = (
            np_ce(o_nat.logits.data, y)
            + beta * np_kl(np_softmax(o_nat.logits.data), np_softmax(o_adv.logits.data))
            + lam * np_ce(s_nat, y)
            + lam * beta * np_kl(np_softmax(s_nat), np_softmax(s_adv))
        )
        loss = TR.loss_terms("trades", net, x, x_adv, y, lam, beta)["total"]
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)


    def test_lambda_without_module_fails_before_any_forward(self, batch):
        """The natural forward would update the batch-norm statistics."""
        x, x_adv, y = batch
        model = small_model(with_ewas=False)
        stats = [a.copy() for _, a in model.state_arrays()]
        with pytest.raises(ConfigError, match=r"^lambda: 0\.01 > 0 requires a scaling"):
            TR.loss_terms("trades", model, x, x_adv, y, 0.01, 6.0)
        for before, (_, after) in zip(stats, model.state_arrays()):
            assert before.tobytes() == after.tobytes()


class TestMartLoss:
    def test_beta_lambda_zero_is_boosted_ce(self, batch):
        x, x_adv, y = batch
        model = small_model(seed=9)
        loss = TR.loss_terms("mart", model, x, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x_adv, labels=y, train=True, mask_mode="training")
        expect = T.boosted_cross_entropy(T.softmax(out.logits), y)
        assert loss.data.tobytes() == expect.data.tobytes()

    def test_certain_natural_prediction_kills_weighted_kl(self):
        """When p_y(x) is 1 to double precision, (1 - p_y) is exactly 0."""
        net = TinyScaledNet((1, 2, 2), 2, seed=10)
        x = np.random.default_rng(11).uniform(0.1, 1, (1, 1, 2, 2))
        y = np.array([0])
        net.ewas_modules[0].weight.data[...] = 1.0  # identity mask
        net.w.data[:, 0] = 500.0
        net.w.data[:, 1] = -500.0  # saturates p_0 to exactly 1.0
        out = net.forward(x, labels=y, train=True, mask_mode="training")
        assert np_softmax(out.logits.data)[0, 0] == 1.0
        terms = TR.loss_terms("mart", net, x, x, y, 0.0, 6.0)
        assert float(terms["kl"].data) == 0.0

    def test_two_class_single_sample_oracle(self):
        net = TinyScaledNet((1, 2, 2), 2, seed=12)
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (1, 1, 2, 2))
        x_adv = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
        y = np.array([0])
        lam, beta = 0.05, 6.0
        o_nat = net.forward(x, labels=y, train=True, mask_mode="training")
        o_adv = net.forward(x_adv, labels=y, train=True, mask_mode="training")
        p_nat, p_adv = np_softmax(o_nat.logits.data), np_softmax(o_adv.logits.data)
        ps_nat = np_softmax(o_nat.alc_scores[0].data)
        ps_adv = np_softmax(o_adv.alc_scores[0].data)
        expect = (
            np_bce(p_adv, y)
            + beta * np_kl(p_nat, p_adv) * (1 - p_nat[0, y[0]])
            + lam * np_bce(ps_adv, y)
            + lam * beta * np_kl(ps_nat, ps_adv) * (1 - ps_nat[0, y[0]])
        )
        loss = TR.loss_terms("mart", net, x, x_adv, y, lam, beta)["total"]
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_per_sample_weighting_not_batch_mean(self):
        """The (1 - p_y) weight multiplies each row's KL before averaging."""
        net = TinyScaledNet((1, 2, 2), 2, seed=14)
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, (3, 1, 2, 2))
        x_adv = np.clip(x + rng.uniform(-0.2, 0.2, x.shape), 0, 1)
        y = np.array([0, 1, 0])
        o_nat = net.forward(x, labels=y, train=True, mask_mode="training")
        o_adv = net.forward(x_adv, labels=y, train=True, mask_mode="training")
        p_nat, p_adv = np_softmax(o_nat.logits.data), np_softmax(o_adv.logits.data)
        rows = np.array([(p_nat[b] * np.log(p_nat[b] / p_adv[b])).sum() for b in range(3)])
        weights = 1 - p_nat[np.arange(3), y]
        per_sample = float((rows * weights).mean())
        batch_mean = float(rows.mean() * weights.mean())
        terms = TR.loss_terms("mart", net, x, x_adv, y, 0.0, 1.0)
        assert float(terms["kl"].data) == pytest.approx(per_sample, rel=1e-12)
        assert per_sample != pytest.approx(batch_mean, rel=1e-6)


def np_weighted_kl(p, q, y):
    rows = (p * np.log(p / q)).sum(axis=1)
    return float(np.mean(rows * (1 - p[np.arange(len(y)), y])))


class TestTwoModules:
    @pytest.mark.parametrize("method", ["at", "trades", "mart"])
    def test_alc_terms_sum_over_both_modules(self, batch, method):
        x, x_adv, y = batch
        lam, beta = 0.05, 6.0
        model = M.ModelSection(width=2).build(60)
        M.insert_ewas(model, "block3", seed=61)
        M.insert_ewas(model, "block4", seed=62)
        o_nat = model.forward(x, labels=y, train=True, mask_mode="training")
        o_adv = model.forward(x_adv, labels=y, train=True, mask_mode="training")
        nat = [s.data for s in o_nat.alc_scores]
        adv = [s.data for s in o_adv.alc_scores]
        if method == "at":
            terms = TR.loss_terms("at", model, None, x_adv, y, lam, 0.0)
            alc = sum(np_ce(s, y) for s in adv)
            alc_kl = None
        elif method == "trades":
            terms = TR.loss_terms("trades", model, x, x_adv, y, lam, beta)
            alc = sum(np_ce(s, y) for s in nat)
            alc_kl = sum(np_kl(np_softmax(a), np_softmax(b)) for a, b in zip(nat, adv))
        else:
            terms = TR.loss_terms("mart", model, x, x_adv, y, lam, beta)
            alc = sum(np_bce(np_softmax(b), y) for b in adv)
            alc_kl = sum(np_weighted_kl(np_softmax(a), np_softmax(b), y)
                         for a, b in zip(nat, adv))
        assert float(terms["alc"].data) == pytest.approx(lam * alc, rel=1e-12)
        if alc_kl is None:
            assert "alc_kl" not in terms
        else:
            assert float(terms["alc_kl"].data) == pytest.approx(lam * beta * alc_kl,
                                                                rel=1e-12)


    @pytest.mark.parametrize("hosts,seed", [(("block4", "block4", "block3"), 67),
                                            (("block2", "block4", "block3", "block1"), 63)])
    def test_trades_alc_adds_modules_in_module_order(self, batch, hosts, seed, monkeypatch):
        """Hosts out of forward order: the alc term is lam times the per-module
        CE terms added in module order, bit for bit. (With these seeds, adding
        them in tap order changes the last bit.)"""
        x, x_adv, y = batch
        lam, beta = 0.3, 6.0
        model = M.ModelSection(width=4, insertion_points=hosts).build(seed)
        inputs, ewas_forward = {}, M.ewas_forward

        def record(z, weight, *args):
            inputs[id(weight)] = z
            return ewas_forward(z, weight, *args)

        monkeypatch.setattr(M, "ewas_forward", record)
        model.forward(x, labels=y, train=True, mask_mode="training")
        monkeypatch.undo()
        flat = [T.reshape(inputs[id(m.weight)], (len(y), -1)) for m in model.ewas_modules]
        ces = [T.softmax_cross_entropy(T.matmul(z, m.weight), y)
               for z, m in zip(flat, model.ewas_modules)]
        expect = lam * reduce(T.add, ces)
        terms = TR.loss_terms("trades", model, x, x_adv, y, lam, beta)
        assert terms["alc"].data.tobytes() == expect.data.tobytes()


class TestNonnegativity:
    def test_all_terms_nonnegative(self, batch):
        x, x_adv, y = batch
        for seed in range(3):
            model = small_model(seed=20 + seed)
            for terms in (
                TR.loss_terms("at", model, None, x_adv, y, 0.01, 0.0),
                TR.loss_terms("trades", model, x, x_adv, y, 0.01, 6.0),
                TR.loss_terms("mart", model, x, x_adv, y, 0.01, 6.0),
            ):
                for key, tensor in terms.items():
                    assert float(tensor.data) >= -1e-12, f"{key} negative"


def sgd_steps(p0, grads, lr, momentum, weight_decay):
    """The parameter ``p0`` after one ``SGD.step`` per gradient in ``grads``
    (``None``: the parameter got no gradient)."""
    p = T.Tensor(np.array(p0, dtype=float), requires_grad=True)
    opt = TR.SGD([("p", p)], lr, momentum, weight_decay)
    for g in grads:
        p.grad = None if g is None else np.array(g, dtype=float)
        opt.step()
        assert p.grad is None
    return p.data


class TestSgd:
    def test_plain_gradient_descent(self):
        p = sgd_steps([1.0, 2.0], [[0.5, -0.5]], lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p, [0.95, 2.05])

    def test_first_step_from_rest(self):
        p = sgd_steps([3.0], [[1.0]], lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p, [2.9])

    def test_two_steps_match_unrolled_recurrence(self):
        lr, mom, wd = 0.1, 0.9, 0.01
        p0, g1, g2 = 2.0, 0.3, -0.4
        v1 = g1 + wd * p0
        p1 = p0 - lr * v1
        v2 = mom * v1 + (g2 + wd * p1)
        p2 = p1 - lr * v2
        p = sgd_steps([p0], [[g1], [g2]], lr, mom, wd)
        np.testing.assert_allclose(p, [p2], rtol=1e-15)

    def test_missing_gradient_is_zero(self):
        """A parameter without a gradient still decays and keeps its momentum."""
        lr, mom, wd = 0.1, 0.9, 0.01
        assert sgd_steps([2.0], [[0.3], None], lr, mom, wd).tobytes() == \
            sgd_steps([2.0], [[0.3], [0.0]], lr, mom, wd).tobytes()


class TestLrSchedule:
    def test_before_first_milestone(self):
        assert TR.lr_schedule(10, 0.1, (60, 90)) == pytest.approx(0.1)

    def test_at_preset_epoch_100(self):
        assert TR.lr_schedule(100, 0.1, (60, 90)) == pytest.approx(0.001)

    def test_trades_and_mart_presets(self):
        assert TR.lr_schedule(80, 0.1, (75,)) == pytest.approx(0.01)
        assert TR.lr_schedule(59, 0.1, (60,)) == pytest.approx(0.1)
        assert TR.lr_schedule(60, 0.1, (60,)) == pytest.approx(0.01)


def toy_config(epochs=2, method="at", lam=0.01, beta=0.0, seed=0):
    return TR.TrainConfig(
        method=method, lam=lam, beta=beta, epochs=epochs, batch_size=16,
        lr=0.05, momentum=0.9, weight_decay=2e-4, milestones=(),
        attack=A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2,
                              random_start=True, lambda_attack=lam),
        seed=seed,
    )


class TestTrainLoop:
    def test_zero_epochs_identity(self):
        model = small_model(seed=30)
        before = [t.data.copy() for _, t in model.parameters()]
        ds = synth_dataset(3, 4, (1, 8, 8), seed=31)
        _, log = TR.train(model, ds, toy_config(epochs=0))
        assert log == []
        for old, (_, t) in zip(before, model.parameters()):
            assert old.tobytes() == t.data.tobytes()

    def test_fixed_seed_bit_identical_checkpoints(self, tmp_path):
        ds = synth_dataset(3, 8, (1, 8, 8), seed=32)
        blobs = []
        for run in range(2):
            model = small_model(seed=33)
            out = tmp_path / f"run{run}"
            TR.train(model, ds, toy_config(epochs=2, seed=7), out_dir=out)
            blobs.append((out / "checkpoint.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("method,beta", [("at", 0.0), ("trades", 6.0), ("mart", 6.0)])
    def test_all_methods_run_and_log(self, method, beta):
        model = small_model(seed=34)
        ds = synth_dataset(3, 8, (1, 8, 8), seed=35)
        _, log = TR.train(model, ds, toy_config(epochs=2, method=method, beta=beta))
        assert len(log) == 2
        rec = log[-1]
        assert 0.0 <= rec.natural_acc <= 1.0
        assert 0.0 <= rec.robust_acc <= 1.0
        assert np.isfinite(rec.loss_total)

    def test_empty_dataset_rejected_before_epoch_zero(self):
        model = small_model(seed=36)
        ds = synth_dataset(3, 1, (1, 8, 8), seed=37)
        ds.images = ds.images[:0]
        ds.labels = ds.labels[:0]
        with pytest.raises(ConfigError):
            TR.train(model, ds, toy_config())

    def test_divergence_aborts_with_location(self):
        model = small_model(seed=38)
        head_w = dict(model.parameters())["head.weight"]
        head_w.data[0, 0] = np.nan  # poison one weight
        ds = synth_dataset(3, 8, (1, 8, 8), seed=39)
        with pytest.raises(NonFiniteError) as err:
            TR.train(model, ds, toy_config(epochs=2))
        assert err.value.epoch == 0 and err.value.batch == 0
        assert "epoch 0" in str(err.value) and "batch 0" in str(err.value)

    def test_lambda_without_module_surfaces_early(self):
        ds = synth_dataset(3, 8, (1, 8, 8), seed=40)
        with pytest.raises(ConfigError):
            TR.train(small_model(with_ewas=False), ds, toy_config())

    def test_natural_acc_measured_before_the_step(self):
        # one batch holds the whole set, so the logged natural accuracy is
        # the untrained model's, taken in the same state as robust_acc
        # (after the step this model scores 8/15, before it 5/15)
        ds = synth_dataset(3, 5, (1, 8, 8), seed=47)
        cfg = replace(toy_config(epochs=1), batch_size=len(ds), lr=0.5)
        _, log = TR.train(small_model(seed=48), ds, cfg)
        untrained = TR._accuracy(small_model(seed=48), ds.images, ds.labels, 0)
        assert log[0].natural_acc == untrained.sum() / len(ds)

    def test_robust_acc_never_exceeds_natural_acc(self, monkeypatch):
        """The clean input is in the threat set: an attack that returns it
        unchanged and unsuccessful leaves robust accuracy at natural accuracy."""
        monkeypatch.setattr(TR, "pgd", unperturbed_attack)
        ds = synth_dataset(3, 8, (1, 8, 8), seed=55)
        _, log = TR.train(small_model(seed=56), ds, toy_config(epochs=2))
        assert log[0].natural_acc < 1
        assert all(rec.robust_acc <= rec.natural_acc for rec in log)


def unperturbed_attack(model, x, y, config):
    """An attack that gives back the clean input and reports no success."""
    n = len(y)
    return A.AdversarialBatch(np.asarray(x, dtype=model.dtype), np.zeros(n, dtype=bool),
                              np.zeros(n))


class TestEvaluate:
    def test_empty_dataset_is_not_scored(self):
        ds = synth_dataset(3, 0, (1, 8, 8), seed=42, split="test")
        with pytest.raises(ConfigError, match="^evaluate: dataset is empty$"):
            TR.evaluate(small_model(seed=41), ds, [])

    def test_empty_attack_list_natural_only(self):
        model = small_model(seed=41)
        ds = synth_dataset(3, 10, (1, 8, 8), seed=42, split="test")
        report = TR.evaluate(model, ds, [])
        assert report.rows == []
        assert 0.0 <= report.natural_acc <= 1.0

    def test_untrained_model_near_chance(self):
        model = small_model(seed=43)
        ds = synth_dataset(3, 120, (1, 8, 8), seed=44, split="test")  # 360 samples
        report = TR.evaluate(model, ds, [])
        assert abs(report.natural_acc - 1 / 3) <= 0.10

    def test_epsilon_zero_robust_equals_natural(self):
        model = small_model(seed=45)
        ds = synth_dataset(3, 20, (1, 8, 8), seed=46, split="test")
        cfg = A.AttackConfig(epsilon=0.0, step_size=0.01, steps=2, name="noop")
        report = TR.evaluate(model, ds, [cfg])
        assert report.rows[0].robust_acc == report.natural_acc

    def test_unperturbed_attack_scores_natural_accuracy(self, monkeypatch):
        monkeypatch.setattr(TR, "pgd", unperturbed_attack)
        ds = synth_dataset(3, 20, (1, 8, 8), seed=46, split="test")
        presets = [A.AttackConfig(epsilon=0.1, step_size=0.1, name="fgsm"),
                   A.AttackConfig(epsilon=0.2, step_size=0.05, steps=3, name="pgd3")]
        monkeypatch.setattr(TR, "EVAL_BATCH", 16)
        report = TR.evaluate(small_model(seed=45), ds, presets)
        assert report.natural_acc < 1
        assert [r.robust_acc for r in report.rows] == [report.natural_acc] * 2

    def test_nan_weight_raises_naming_the_clean_pass(self):
        model = small_model(seed=49)
        dict(model.parameters())["head.weight"].data[0, 0] = np.nan
        ds = synth_dataset(3, 5, (1, 8, 8), seed=50, split="test")
        with pytest.raises(NonFiniteError) as err:
            TR.evaluate(model, ds, [])
        assert err.value.what == "'natural' logits" and err.value.batch == 0

    def test_non_finite_attack_objective_raises_naming_attack(self, monkeypatch):
        def pgd_inf_in_last_batch(model, x, y, config):
            adv = A.pgd(model, x, y, config)
            if len(y) < 8:
                adv.loss[-1] = np.inf
            return adv

        monkeypatch.setattr(TR, "pgd", pgd_inf_in_last_batch)
        ds = synth_dataset(3, 5, (1, 8, 8), seed=51, split="test")  # batches of 8 and 7
        cfg = A.AttackConfig(epsilon=0.05, step_size=0.02, steps=1, name="pgd1")
        monkeypatch.setattr(TR, "EVAL_BATCH", 8)
        with pytest.raises(NonFiniteError) as err:
            TR.evaluate(small_model(seed=52), ds, [cfg])
        assert err.value.what == "'pgd1' attack" and err.value.batch == 1
        assert "pgd1" in str(err.value) and "batch 1" in str(err.value)

    def test_attack_batches_seed_each_batch_by_its_index(self):
        model = small_model(seed=53)
        ds = synth_dataset(2, 65, (1, 8, 8), seed=54, split="test")  # batches of 128 and 2
        cfg = A.AttackConfig(epsilon=0.1, step_size=0.05, steps=2,
                             random_start=True, seed=9)
        advs = list(TR.attack_batches(model, ds.images, ds.labels, cfg))
        assert [len(adv.success) for adv in advs] == [128, 2]
        expect = A.pgd(model, ds.images[128:], ds.labels[128:],
                       replace(cfg, seed=int(stream(cfg.seed, EVAL_ATTACK, 1).integers(2**32))))
        assert advs[1].x_adv.tobytes() == expect.x_adv.tobytes()
        assert advs[1].success.tobytes() == expect.success.tobytes()
        assert advs[1].loss.tobytes() == expect.loss.tobytes()

    def test_reevaluation_identical(self):
        model = small_model(seed=47)
        ds = synth_dataset(3, 15, (1, 8, 8), seed=48, split="test")
        cfg = A.AttackConfig(epsilon=0.05, step_size=0.02, steps=2,
                             random_start=True, seed=5)
        r1 = TR.evaluate(model, ds, [cfg])
        r2 = TR.evaluate(model, ds, [cfg])
        assert r1.rows[0].robust_acc == r2.rows[0].robust_acc
        assert r1.csv_rows() == r2.csv_rows()


class TestTapeMemory:
    """The outer loss graph holds each activation once and backward frees it."""

    @staticmethod
    def trades_inputs():
        model = M.ModelSection(arch="resnet18_like", width=4, input_shape=(3, 16, 16),
                               num_classes=5, insertion_points=("layer15",)).build(3)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (16, 3, 16, 16))
        x_adv = np.clip(x + rng.uniform(-0.03, 0.03, x.shape), 0, 1)
        y = np.arange(16) % 5
        return model, x, x_adv, y

    @staticmethod
    def graph_nodes(root):
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        return nodes.values()

    def test_trades_graph_keeps_each_activation_once(self):
        model, x, x_adv, y = self.trades_inputs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            terms = TR.loss_terms("trades", model, x, x_adv, y, 0.5, 6.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        buffers = {}  # the arrays node data live in; a view counts its base once
        ops = 0
        for node in self.graph_nodes(terms["total"]):
            if node._grad_fn is None or node.data is None:
                continue  # leaves (the parameters, and the inputs wrapped without a copy)
                          # and nodes dropped after their last forward reader
            ops += 1
            base = node.data
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        # Per op, its Tensor, closure cells and O(C) or O(B·K) numbers: about
        # 1.1 KiB here, where the smallest activation takes 16 KiB.
        assert kept <= sum(buffers.values()) + 2048 * ops

    def block_buffers(self, monkeypatch, downsampling: bool) -> list[int]:
        """Activation-sized buffers the TRADES graph keeps for each block of one
        kind that no scaling module taps; dropped nodes (``data is None``) keep none."""
        model, x, x_adv, y = self.trades_inputs()
        hosts = set(model.spec.insertion_points)
        calls = []
        forward = M.BasicBlock.forward

        def record(block, h, training, ctx):
            out = forward(block, h, training, ctx)
            if (block.down is not None) == downsampling and not {block.tap1, block.tap2} & hosts:
                calls.append((h, out, out.data.nbytes))
            return out

        monkeypatch.setattr(M.BasicBlock, "forward", record)
        TR.loss_terms("trades", model, x, x_adv, y, 0.5, 6.0)
        counts = []
        for block_in, block_out, nbytes in calls:
            buffers, seen, stack = set(), {id(block_in)}, [block_out]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.extend(node._parents)
                if (node._grad_fn is not None and node.data is not None
                        and node.data.nbytes == nbytes):
                    base = node.data
                    while isinstance(base.base, np.ndarray):
                        base = base.base
                    buffers.add(id(base))
            counts.append(len(buffers))
        return counts

    def test_identity_block_keeps_three_activation_buffers(self, monkeypatch):
        """conv1 holds x̂1, conv2 holds x̂2, and bn2 = add = ReLU is the block
        output. The bn1-ReLU output is dropped after conv2 reads it; out-of-place
        ops kept 7 buffers, in-place ReLUs and add 4."""
        # 5 identity blocks, natural and adversarial forward
        assert self.block_buffers(monkeypatch, downsampling=False) == [3] * 10

    def test_downsampling_block_keeps_four_activation_buffers(self, monkeypatch):
        """The identity block's 3 plus the down conv, which holds its x̂; the
        down_bn output, read only by the in-place add, is dropped (6 before)."""
        # stage2.block1 and stage3.block1; the module at layer15 scales stage4.block1
        assert self.block_buffers(monkeypatch, downsampling=True) == [4] * 4

    def test_terms_stay_readable_after_backward(self):
        model, x, x_adv, y = self.trades_inputs()
        terms = TR.loss_terms("trades", model, x, x_adv, y, 0.5, 6.0)
        values = {key: float(term.data) for key, term in terms.items()}
        T.backward(terms["total"])
        assert {key: float(term.data) for key, term in terms.items()} == values
        assert terms["total"]._parents == () and terms["cls"]._parents == ()
