"""Activation statistics vs brute-force oracles, and CSV export."""

import numpy as np
import pytest

from ewas import analysis as AN
from ewas.errors import ConfigError

from _rows import read_rows


def brute_force_frequency(samples, scope="sample"):
    """Scalar reimplementation with explicit loops."""
    n = len(samples)
    c = samples[0].shape[0]
    global_max = max(float(s.max()) for s in samples)
    counts = [0] * c
    for s in samples:
        limit = 0.01 * (float(s.max()) if scope == "sample" else global_max)
        for ch in range(c):
            valid = False
            for v in s[ch].reshape(-1):
                if v > limit:
                    valid = True
                    break
            if valid:
                counts[ch] += 1
    return np.array([cnt / n for cnt in counts])


def brute_force_magnitude(samples):
    n = len(samples)
    c = samples[0].shape[0]
    out = np.zeros(c)
    for s in samples:
        for ch in range(c):
            out[ch] += float(s[ch].max())
    return out / n


class TestFrequency:
    def test_all_zero(self):
        samples = [np.zeros((3, 2, 2)) for _ in range(4)]
        np.testing.assert_array_equal(AN.activation_frequency(samples), [0, 0, 0])

    def test_single_sample_global_max_channel(self):
        s = np.zeros((3, 2, 2))
        s[1, 0, 0] = 5.0
        freq = AN.activation_frequency([s])
        assert freq[1] == 1.0

    def test_exactly_at_threshold_is_not_valid(self):
        """Strict '>': a unit at exactly 1% of the sample max does not count."""
        s = np.zeros((3, 2, 2))
        s[0, 0, 0] = 100.0
        s[1, 0, 0] = 1.0            # exactly 1% of 100
        s[2, 0, 0] = 1.0 + 1e-9     # just above
        freq = AN.activation_frequency([s])
        np.testing.assert_array_equal(freq, [1.0, 0.0, 1.0])

    def test_crafted_two_sample_instance_vs_oracle(self):
        s1 = np.zeros((3, 2, 2))
        s1[0, 0, 0] = 10.0
        s1[1, 1, 1] = 0.05   # below 1% of 10
        s1[2, 0, 1] = 0.11   # above
        s2 = np.zeros((3, 2, 2))
        s2[1, 0, 0] = 1.0
        samples = [s1, s2]
        np.testing.assert_allclose(
            AN.activation_frequency(samples), brute_force_frequency(samples)
        )

    def test_random_vs_oracle_both_scopes(self):
        rng = np.random.default_rng(0)
        samples = [np.abs(rng.normal(size=(4, 3, 3))) * rng.uniform(0.1, 10)
                   for _ in range(6)]
        for scope in ("sample", "dataset"):
            np.testing.assert_allclose(
                AN.activation_frequency(samples, scope),
                brute_force_frequency(samples, scope),
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            AN.activation_frequency([])


class TestMagnitude:
    def test_constant_activation(self):
        samples = [np.full((2, 3, 3), 2.5) for _ in range(3)]
        np.testing.assert_array_equal(AN.activation_magnitude(samples), [2.5, 2.5])

    def test_mean_of_channel_maxima(self):
        a = np.zeros((1, 2, 2)); a[0, 0, 0] = 1.0
        b = np.zeros((1, 2, 2)); b[0, 1, 1] = 3.0
        np.testing.assert_array_equal(AN.activation_magnitude([a, b]), [2.0])

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(1)
        samples = [np.abs(rng.normal(size=(5, 2, 4))) for _ in range(7)]
        np.testing.assert_allclose(
            AN.activation_magnitude(samples), brute_force_magnitude(samples)
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            AN.activation_magnitude([])


def test_batch_array_and_sample_list_give_the_same_stats():
    rng = np.random.default_rng(2)
    batch = np.abs(rng.normal(size=(5, 3, 2, 2)))
    from_array = AN.ActivationStats.collect(batch, 0, "natural")
    from_list = AN.ActivationStats.collect(list(batch), 0, "natural")
    np.testing.assert_array_equal(from_array.frequency, from_list.frequency)
    np.testing.assert_array_equal(from_array.magnitude, from_list.magnitude)
    with pytest.raises(ConfigError, match="per-sample"):
        AN.activation_magnitude(batch[0])


class TestPermutationEquivariance:
    def test_channel_permutation_permutes_outputs(self):
        rng = np.random.default_rng(2)
        samples = [np.abs(rng.normal(size=(5, 3, 3))) for _ in range(4)]
        perm = rng.permutation(5)
        permuted = [s[perm] for s in samples]
        np.testing.assert_allclose(
            AN.activation_frequency(permuted),
            AN.activation_frequency(samples)[perm],
        )
        np.testing.assert_allclose(
            AN.activation_magnitude(permuted),
            AN.activation_magnitude(samples)[perm],
        )


class TestExport:
    def make_stats(self, seed, kind):
        rng = np.random.default_rng(seed)
        samples = [np.abs(rng.normal(size=(4, 2, 2))) for _ in range(5)]
        return AN.ActivationStats.collect(samples, class_label=1, input_kind=kind)

    def test_single_channel_single_row_per_kind(self, tmp_path):
        samples = [np.abs(np.random.default_rng(3).normal(size=(1, 2, 2)))]
        nat = AN.ActivationStats.collect(samples, 0, "natural")
        path = tmp_path / "one.csv"
        AN.export_stats(nat, None, path, layer="block4")
        rows = read_rows(path)
        assert len(rows) == 2  # one per statistic kind
        assert {r["statistic_kind"] for r in rows} == {"frequency", "magnitude"}
        assert "adversarial_value" not in rows[0]

    def test_natural_ordering_non_increasing(self, tmp_path):
        nat = self.make_stats(4, "natural")
        adv = self.make_stats(5, "adversarial")
        path = tmp_path / "both.csv"
        AN.export_stats(nat, adv, path, layer="block3")
        rows = read_rows(path)
        for kind in ("frequency", "magnitude"):
            vals = [float(r["natural_value"]) for r in rows
                    if r["statistic_kind"] == kind]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_adversarial_rows_follow_natural_ordering(self, tmp_path):
        nat = self.make_stats(6, "natural")
        adv = self.make_stats(7, "adversarial")
        path = tmp_path / "ord.csv"
        AN.export_stats(nat, adv, path, layer="block4")
        rows = [r for r in read_rows(path)
                if r["statistic_kind"] == "magnitude"]
        order = AN.channel_ordering(nat, "magnitude")
        got = [int(r["channel_index"]) for r in rows]
        assert got == list(order)
        for r, ch in zip(rows, order):
            assert float(r["adversarial_value"]) == pytest.approx(adv.magnitude[ch])

    def test_round_trip_reproduces_stats(self, tmp_path):
        nat = self.make_stats(8, "natural")
        adv = self.make_stats(9, "adversarial")
        path = tmp_path / "rt.csv"
        AN.export_stats(nat, adv, path, layer="block2")
        rows = read_rows(path)
        rebuilt_freq = np.zeros_like(nat.frequency)
        rebuilt_mag = np.zeros_like(nat.magnitude)
        for r in rows:
            ch = int(r["channel_index"])
            if r["statistic_kind"] == "frequency":
                rebuilt_freq[ch] = float(r["natural_value"])
            else:
                rebuilt_mag[ch] = float(r["natural_value"])
        np.testing.assert_allclose(rebuilt_freq, nat.frequency, rtol=1e-9)
        np.testing.assert_allclose(rebuilt_mag, nat.magnitude, rtol=1e-9)
        assert all(r["layer"] == "block2" and r["class"] == "1" for r in rows)

    def test_channel_count_mismatch_rejected(self, tmp_path):
        nat = self.make_stats(10, "natural")
        rng = np.random.default_rng(11)
        adv = AN.ActivationStats.collect(
            [np.abs(rng.normal(size=(3, 2, 2)))], 1, "adversarial")
        with pytest.raises(ConfigError):
            AN.export_stats(nat, adv, tmp_path / "bad.csv", layer="x")
