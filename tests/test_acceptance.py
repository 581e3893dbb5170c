"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are fixed here and match the package contracts:
gradients against central finite differences (h=1e-6, float64) at
relative error <= 1e-4; mechanism oracle at 1e-10; attack constraints at
one ulp; reductions bit-exact.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ewas import analysis as AN
from ewas import attacks as A
from ewas import models as M
from ewas import scaling as S
from ewas import tensor as T
from ewas import training as TR
from ewas.cli import EXIT_OK, main
from ewas.data import synth_dataset

from _gradcheck import rel_err
from _rows import read_rows

GRAD_TOL = 1e-4
FD_H = 1e-6


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def build_instance(seed):
    model = M.ModelSection(width=2).build(seed)
    M.insert_ewas(model, "block4", seed=seed + 1000)
    rng = np.random.default_rng(seed + 2000)
    x = rng.uniform(0.05, 0.95, (2, 1, 8, 8))
    x_adv = np.clip(x + rng.uniform(-0.08, 0.08, x.shape), 0, 1)
    y = rng.integers(0, 3, size=2)
    return model, x, x_adv, y


def fd_check_every_entry(pairs, value_fn):
    """Central differences over every entry of every (array, grad) pair."""
    for arr, grad in pairs:
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + FD_H
            up = value_fn()
            flat[i] = old - FD_H
            down = value_fn()
            flat[i] = old
            fd = (up - down) / (2 * FD_H)
            err = rel_err(fd, gflat[i])
            assert err <= GRAD_TOL, (
                f"grad mismatch at entry {i}: fd={fd:.10g} "
                f"analytic={gflat[i]:.10g} rel={err:.3g}"
            )


def test_gradient_suite():
    """Every parameter and input gradient of each composite loss matches
    central finite differences on 5 random instances, within 2 minutes."""
    with criterion("gradient suite (AT/TRADES/MART/attack objective vs FD)"):
        t0 = time.perf_counter()
        for seed in range(5):
            model, x, x_adv, y = build_instance(seed)
            params = [t for _, t in model.parameters()]

            def run(builder, leaves):
                for t in params:
                    t.zero_grad()
                T.backward(builder())
                def value():
                    with T.no_grad():
                        return float(builder().data)
                pairs = [(t.data, t.grad) for t in params]
                pairs += [(leaf.data, leaf.grad) for leaf in leaves]
                fd_check_every_entry(pairs, value)

            for method in TR.METHODS:  # AT reads no natural input
                xn = T.Tensor(x.copy(), requires_grad=True)
                xa = T.Tensor(x_adv.copy(), requires_grad=True)
                run(lambda: TR.loss_terms(method, model, xn, xa, y, 0.01, 6.0)["total"],
                    [xa] if method == "at" else [xn, xa])

            xt = T.Tensor(x.copy(), requires_grad=True)
            run(lambda: A._objective(
                model.forward(xt, labels=y, train=False, mask_mode="inference"),
                y, "cross_entropy", 0.01, 0.0), [xt])

        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"gradient suite took {elapsed:.1f}s (> 2 min)"


def test_mechanism_oracle():
    """ewas_forward equals an independent three-step scalar oracle to 1e-10
    on 100+ random instances; flatten/reformat round trip is bit-exact."""
    with criterion("mechanism oracle (three-step scalar reimplementation)"):
        from test_scaling import scalar_oracle

        rng = np.random.default_rng(12345)
        for trial in range(110):
            b = int(rng.integers(1, 4))
            c, h, w = (int(v) for v in rng.integers(1, 5, size=3))
            k = int(rng.integers(2, 6))
            z = rng.normal(size=(b, c, h, w))
            theta = rng.normal(size=(c * h * w, k))
            y = rng.integers(0, k, size=b)
            mode = "training" if trial % 2 == 0 else "inference"
            weight = T.Tensor(theta)
            scaled, scores = S.ewas_forward(T.Tensor(z), weight, y, mode)
            exp_scaled, exp_scores = scalar_oracle(z, theta, y, mode)
            assert np.abs(scores.data - exp_scores).max() <= 1e-10
            assert np.abs(scaled.data - exp_scaled).max() <= 1e-10
            flat = T.reshape(T.Tensor(z), (b, -1))
            back = T.reshape(flat, z.shape)
            assert back.data.tobytes() == z.tobytes()


def test_selection_semantics():
    """Training mode uses the label column; inference mode uses the score
    argmax with lowest-index ties; all-ones masks equal the plain model."""
    with criterion("selection semantics and identity-mask equivalence"):
        rng = np.random.default_rng(777)
        theta = rng.normal(size=(8, 4))
        weight = T.Tensor(theta)
        shape = (2, 2, 2)
        ones = T.Tensor(np.ones((2, *shape)))  # the scaled output is the mask itself
        y = np.array([3, 1])
        m_train, _ = S.ewas_forward(ones, weight, y, "training")
        for b, label in enumerate(y):
            assert m_train.data[b].tobytes() == \
                theta[:, label].reshape(shape).tobytes()
        # On ones the scores are the column sums: columns 1 and 2 tie for the
        # maximum with different masks, and in ``rolled`` all four tie.
        ramp = np.arange(8.0)
        tied = np.stack([-ramp, ramp, ramp[::-1], np.ones(8)], axis=1)
        rolled = np.stack([np.roll(ramp, k) for k in range(4)], axis=1)
        for theta_tie, first, n_max in ((tied, 1, 2), (rolled, 0, 4)):
            m_inf, scores = S.ewas_forward(ones, T.Tensor(theta_tie), None, "inference")
            assert np.count_nonzero(scores.data[0] == scores.data[0].max()) == n_max
            for b in range(2):
                assert m_inf.data[b].tobytes() == \
                    theta_tie[:, first].reshape(shape).tobytes()

        x = rng.uniform(0, 1, (4, 1, 8, 8))
        plain = M.ModelSection(width=4).build(31)
        wrapped = M.ModelSection(width=4).build(31)
        M.insert_ewas(wrapped, "block3")
        wrapped.ewas_modules[0].weight.data[...] = 1.0
        a = plain.forward(x).logits.data
        for mode, labels in (("inference", None), ("training", np.array([0, 1, 2, 0]))):
            b = wrapped.forward(x, labels=labels, mask_mode=mode).logits.data
            ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
            assert np.all(np.abs(a - b) <= ulp)


def test_attack_invariants():
    """1000+ attacked samples satisfy the ball and box constraints; the
    zero-lambda objective is the backbone loss bit-exactly; PGD solves the
    linear model in one step."""
    with criterion("attack invariants (ball/box, lambda=0, corner)"):
        model = M.ModelSection(width=2).build(41)
        M.insert_ewas(model, "block4", seed=42)
        rng = np.random.default_rng(4242)
        total = 0
        for trial in range(100):
            x = rng.uniform(0, 1, (10, 1, 8, 8))
            y = rng.integers(0, 3, size=10)
            eps = float(rng.uniform(0.005, 0.3))
            kind = ("cross_entropy", "cw_margin", "cross_entropy")[trial % 3]
            cfg = A.AttackConfig(
                epsilon=eps, step_size=eps / float(rng.uniform(1, 4)),
                steps=int(rng.integers(1, 4)), random_start=bool(trial % 2),
                loss_kind=kind, lambda_attack=float(rng.uniform(0, 1)),
                seed=trial,
            )
            adv = A.pgd(model, x, y, cfg)
            delta = adv.x_adv - x
            # one rounding of O(1)-scale arithmetic (pixels + epsilon)
            slack = np.spacing(np.float64(1.0 + eps))
            assert np.abs(delta).max() <= eps + slack
            assert adv.x_adv.min() >= 0.0 and adv.x_adv.max() <= 1.0
            total += len(y)
        assert total >= 1000

        x = rng.uniform(0, 1, (8, 1, 8, 8))
        y = rng.integers(0, 3, size=8)
        xt = T.Tensor(x)
        combined = A._objective(
            model.forward(xt, labels=y, train=False, mask_mode="inference"),
            y, "cross_entropy", 0.0, 0.0)
        out = model.forward(x, labels=y, train=False, mask_mode="inference")
        backbone = T.softmax_cross_entropy(out.logits, y)
        assert combined.data.tobytes() == backbone.data.tobytes()

        w = rng.normal(size=(64, 2))
        from test_attacks import LinearModel

        linear = LinearModel(w)
        x0 = np.full((1, 1, 8, 8), 0.5)
        eps = 0.07
        corner = np.clip(x0 + eps * np.sign(w[:, 1] - w[:, 0]).reshape(1, 1, 8, 8), 0, 1)
        adv = A.pgd(linear, x0, np.array([0]),
                    A.AttackConfig(epsilon=eps, step_size=eps, steps=1,
                                   random_start=False))
        assert np.abs(adv.x_adv - corner).max() <= np.spacing(1.0)


def test_loss_reductions():
    """Documented special cases are bit-exact; KL terms vanish at x_adv=x."""
    with criterion("loss reductions (lambda/beta zero cases, zero KL)"):
        model = M.ModelSection(width=2).build(51)
        M.insert_ewas(model, "block4", seed=52)
        rng = np.random.default_rng(53)
        x = rng.uniform(0, 1, (4, 1, 8, 8))
        x_adv = np.clip(x + rng.uniform(-0.1, 0.1, x.shape), 0, 1)
        y = rng.integers(0, 3, size=4)

        at = TR.loss_terms("at", model, None, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x_adv, labels=y, train=True, mask_mode="training")
        assert at.data.tobytes() == T.softmax_cross_entropy(out.logits, y).data.tobytes()

        tr = TR.loss_terms("trades", model, x, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x, labels=y, train=True, mask_mode="training")
        assert tr.data.tobytes() == T.softmax_cross_entropy(out.logits, y).data.tobytes()

        ma = TR.loss_terms("mart", model, x, x_adv, y, 0.0, 0.0)["total"]
        out = model.forward(x_adv, labels=y, train=True, mask_mode="training")
        expect = T.boosted_cross_entropy(T.softmax(out.logits), y)
        assert ma.data.tobytes() == expect.data.tobytes()

        terms = TR.loss_terms("trades", model, x, x, y, 0.01, 6.0)
        assert float(terms["kl"].data) == 0.0
        assert float(terms["alc_kl"].data) == 0.0
        terms = TR.loss_terms("mart", model, x, x, y, 0.01, 6.0)
        assert float(terms["kl"].data) == 0.0
        assert float(terms["alc_kl"].data) == 0.0


def test_analysis_oracles(tmp_path):
    """Frequency/magnitude match brute-force loops, the 1% boundary is
    strict, and adversarial rows keep the natural channel ordering."""
    with criterion("analysis oracles (strict threshold, natural ordering)"):
        from test_analysis import brute_force_frequency, brute_force_magnitude

        s = np.zeros((3, 2, 2))
        s[0, 0, 0] = 100.0
        s[1, 0, 0] = 1.0          # exactly the 1% threshold: NOT valid
        s[2, 0, 0] = 1.0000001
        freq = AN.activation_frequency([s])
        assert freq.tolist() == [1.0, 0.0, 1.0]

        rng = np.random.default_rng(61)
        samples = [np.abs(rng.normal(size=(5, 3, 3))) for _ in range(8)]
        np.testing.assert_allclose(
            AN.activation_frequency(samples), brute_force_frequency(samples))
        np.testing.assert_allclose(
            AN.activation_magnitude(samples), brute_force_magnitude(samples))

        nat = AN.ActivationStats.collect(samples, 0, "natural")
        adv_samples = [np.abs(rng.normal(size=(5, 3, 3))) for _ in range(8)]
        adv = AN.ActivationStats.collect(adv_samples, 0, "adversarial")
        path = tmp_path / "stats.csv"
        AN.export_stats(nat, adv, path, layer="block4")
        rows = read_rows(path)
        for kind in ("frequency", "magnitude"):
            kind_rows = [r for r in rows if r["statistic_kind"] == kind]
            assert [int(r["channel_index"]) for r in kind_rows] == \
                list(AN.channel_ordering(nat, kind))
            vals = [float(r["natural_value"]) for r in kind_rows]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            for r in kind_rows:
                assert float(r["adversarial_value"]) == pytest.approx(
                    adv.values(kind)[int(r["channel_index"])])


TOY = dict(num_classes=3, train_per_class=200, test_per_class=100,
           shape=(1, 8, 8), width=8, lam=0.01, epochs=30, batch_size=64,
           lr=0.1, eps=0.1, step=0.025, steps=5, seed=5, data_seed=11)


def run_toy(out_dir):
    model = M.ModelSection(width=TOY["width"], input_shape=TOY["shape"],
                           num_classes=TOY["num_classes"]).build(0)
    M.insert_ewas(model, "block4", seed=1)
    train_set = synth_dataset(TOY["num_classes"], TOY["train_per_class"],
                              TOY["shape"], seed=TOY["data_seed"])
    inner = A.AttackConfig(epsilon=TOY["eps"], step_size=TOY["step"],
                           steps=TOY["steps"], random_start=True,
                           lambda_attack=TOY["lam"])
    cfg = TR.TrainConfig(method="at", lam=TOY["lam"], beta=0.0,
                         epochs=TOY["epochs"], batch_size=TOY["batch_size"],
                         lr=TOY["lr"], momentum=0.9, weight_decay=2e-4,
                         attack=inner, seed=TOY["seed"])
    return TR.train(model, train_set, cfg, out_dir=out_dir)


def test_toy_end_to_end(tmp_path):
    """30-epoch AT on the synthetic task: natural >= 0.95 on the test split,
    robust accuracy gain >= 20 points, run <= 5 min, bit-reproducible."""
    with criterion("toy end-to-end training (accuracy, speed, reproducibility)"):
        t0 = time.perf_counter()
        model, log = run_toy(tmp_path / "run1")
        elapsed = time.perf_counter() - t0
        assert elapsed <= 300.0, f"toy training took {elapsed:.0f}s (> 5 min)"

        test_set = synth_dataset(TOY["num_classes"], TOY["test_per_class"],
                                 TOY["shape"], seed=TOY["data_seed"], split="test")
        report = TR.evaluate(model, test_set, [])
        assert report.natural_acc >= 0.95
        gain = log[-1].robust_acc - log[0].robust_acc
        assert gain >= 0.20, f"robust accuracy gained only {gain * 100:.1f} points"

        run_toy(tmp_path / "run2")
        a = (tmp_path / "run1" / "checkpoint.ckpt").read_bytes()
        b = (tmp_path / "run2" / "checkpoint.ckpt").read_bytes()
        assert a == b, "two seeded runs differ"


ABLATE_BASE = {
    "seed": 5,
    "model": {"arch": "small_cnn", "width": 8, "input_shape": [1, 8, 8],
              "num_classes": 3, "insertion_points": ["block4"],
              "dtype": "float64"},
    "data": {"kind": "synthetic", "num_classes": 3, "samples_per_class": 100,
             "test_samples_per_class": 60, "shape": [1, 8, 8],
             "noise_std": 0.1, "seed": 11},
    "train": {"method": "at", "lambda": 0.01, "beta": 0.0, "epochs": 12,
              "batch_size": 64, "lr": 0.1, "momentum": 0.9,
              "weight_decay": 0.0002, "milestones": [],
              "attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 5,
                         "random_start": True, "lambda_attack": 0.01}},
    "attack_presets": {"pgd10": {"epsilon": 0.2, "step_size": 0.05,
                                 "steps": 10, "random_start": True}},
}


def test_ablation_structure_and_signature(tmp_path):
    """Sweep tables have the reference row/column structure, and attacking
    with lambda 0 leaves the model strictly more robust than attacking
    with the training lambda."""
    with criterion("ablation sweeps (structure + zero-lambda signature)"):
        # evaluation-lambda sweep over a single trained checkpoint
        cfg_path = tmp_path / "cfg.json"
        cfg = json.loads(json.dumps(ABLATE_BASE))
        cfg["output_dir"] = str(tmp_path / "al")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(cfg_path), "--axis",
                     "attack_lambda", "--values", "0,0.01,0.1"]) == EXIT_OK
        rows = read_rows(tmp_path / "al" / "ablation.csv", header=False)
        assert rows[0] == ["attack_lambda", "natural_acc", "pgd10"]
        assert [r[0] for r in rows[1:]] == ["0.0", "0.01", "0.1"]
        robust = {r[0]: float(r[2]) for r in rows[1:]}
        assert robust["0.0"] > robust["0.01"], (
            "attack with lambda=0 should fail more often than at the "
            f"training lambda: {robust}"
        )

        # lambda sweep at tiny scale: one row per trained point
        cfg = json.loads(json.dumps(ABLATE_BASE))
        cfg["output_dir"] = str(tmp_path / "lam")
        cfg["data"]["samples_per_class"] = 40
        cfg["data"]["test_samples_per_class"] = 30
        cfg["train"]["epochs"] = 3
        cfg_path2 = tmp_path / "cfg2.json"
        cfg_path2.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(cfg_path2), "--axis", "lambda",
                     "--values", "0.01,0.05"]) == EXIT_OK
        rows = read_rows(tmp_path / "lam" / "ablation.csv", header=False)
        assert rows[0] == ["lambda", "natural_acc", "pgd10"]
        assert [r[0] for r in rows[1:]] == ["0.01", "0.05"]

        # position sweep enumerating insertion points
        cfg["output_dir"] = str(tmp_path / "pos")
        cfg_path3 = tmp_path / "cfg3.json"
        cfg_path3.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(cfg_path3), "--axis", "position",
                     "--values", "block3,block4"]) == EXIT_OK
        rows = read_rows(tmp_path / "pos" / "ablation.csv", header=False)
        assert rows[0] == ["position", "natural_acc", "pgd10"]
        assert [r[0] for r in rows[1:]] == ["block3", "block4"]


def test_persistence(tmp_path):
    """Checkpoint round trip is byte-identical; one flipped byte is caught."""
    with criterion("persistence (byte-identical round trip, corruption)"):
        model = M.ModelSection(width=2).build(71)
        M.insert_ewas(model, "block4", seed=72)
        model.forward(np.random.default_rng(73).uniform(0, 1, (4, 1, 8, 8)),
                      train=True, mask_mode="inference")
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        M.save_checkpoint(model, p1, epoch=3, seed=71, config_digest="d")
        M.save_checkpoint(M.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        blob = bytearray(p1.read_bytes())
        blob[-40] ^= 0x01
        p1.write_bytes(bytes(blob))
        from ewas.errors import CheckpointError

        with pytest.raises(CheckpointError):
            M.load_checkpoint(p1)


def test_reference_results_recorded_in_docs():
    """Full-scale reference numbers live in the README, not in tests."""
    with criterion("full-scale reference results recorded in docs"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        for value in ("84.73", "65.78", "64.84", "82.35"):
            assert value in text, f"reference value {value} missing from README"
