"""The CIFAR binary loader, synthetic data, deterministic batching."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewas import data as D
from ewas.errors import ConfigError, CountMismatchError, DataFormatError


class TestCifarBinary:
    @staticmethod
    def record(label: int, value: int | None = None, rng=None) -> bytes:
        pixels = (np.full(3072, value, dtype=np.uint8) if value is not None
                  else rng.integers(0, 256, 3072, dtype=np.uint8))
        return bytes([label]) + pixels.tobytes()

    def test_single_record_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        path = tmp_path / "b1.bin"
        path.write_bytes(bytes([7]) + pixels.tobytes())
        ds = D.load_cifar_binary([path])
        assert ds.labels[0] == 7
        assert ds.images.shape == (1, 3, 32, 32)
        # planes are row-major R, G, B; corners map to plane ends
        assert ds.images[0, 0, 0, 0] == pixels[0] / 255.0
        assert ds.images[0, 1, 0, 0] == pixels[1024] / 255.0
        assert ds.images[0, 2, 31, 31] == pixels[3071] / 255.0

    def test_two_files_concatenate_in_order(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        p1.write_bytes(self.record(1, value=10) + self.record(2, value=20))
        p2.write_bytes(self.record(3, value=30))
        ds = D.load_cifar_binary([p1, p2])
        np.testing.assert_array_equal(ds.labels, [1, 2, 3])

    def test_two_files_fill_one_array_exactly_as_byte_over_255(self, tmp_path):
        """The pixels are the bytes of ``astype(float64) / 255.0``, filled file by
        file into one array: the load holds the images, one file's bytes and the
        ufunc's cast buffers. Converting each file twice and concatenating held
        twice the images."""
        rng = np.random.default_rng(3)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, n in zip(paths, (40, 60)):
            path.write_bytes(b"".join(self.record(int(rng.integers(10)), rng=rng)
                                      for _ in range(n)))
        tracemalloc.start()
        try:
            ds = D.load_cifar_binary(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw = [np.frombuffer(p.read_bytes(), np.uint8).reshape(-1, D.CIFAR_RECORD_BYTES)
               for p in paths]
        old = np.concatenate([r[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
                              for r in raw])
        assert ds.images.tobytes() == old.tobytes()
        np.testing.assert_array_equal(ds.labels, np.concatenate([r[:, 0] for r in raw]))
        assert peak <= ds.images.nbytes + paths[1].stat().st_size + 256 * 1024

    def test_all_255_record(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(self.record(0, value=255))
        ds = D.load_cifar_binary([path])
        np.testing.assert_array_equal(ds.images, 1.0)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)  # one byte short of a record
        with pytest.raises(DataFormatError):
            D.load_cifar_binary([path])


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
    def test_pixel_not_in_unit_interval_rejected(self, bad):
        """NaN fails the range check too, not later as a diverged run."""
        images = np.full((2, 1, 8, 8), 0.5)
        images[1, 0, 3, 4] = bad
        with pytest.raises(DataFormatError, match="pixel values"):
            D.Dataset(images, np.array([0, 1]), num_classes=2)

    @pytest.mark.parametrize("labels", [[0.4, 1.9], [True, False]], ids=["fractional", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        """Not truncated to labels 0 and 1."""
        with pytest.raises(DataFormatError, match="integers"):
            D.Dataset(np.zeros((2, 1, 2, 2)), np.array(labels), num_classes=3)

    def test_empty_label_list_accepted(self):
        assert D.Dataset(np.zeros((0, 1, 2, 2)), [], num_classes=3).labels.dtype == np.int64

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError, match="2 images vs 1 labels"):
            D.Dataset(np.zeros((2, 1, 2, 2)), np.array([0]), num_classes=2)


class TestSynthDataset:
    def test_deterministic(self):
        a = D.synth_dataset(3, 10, (1, 8, 8), seed=5)
        b = D.synth_dataset(3, 10, (1, 8, 8), seed=5)
        assert a.images.tobytes() == b.images.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_to_template(self):
        ds = D.synth_dataset(2, 4, (1, 8, 8), seed=6, noise_std=0.0)
        for k in range(2):
            block = ds.images[ds.labels == k]
            assert all(s.tobytes() == block[0].tobytes() for s in block)

    def test_train_test_share_templates_not_noise(self):
        train = D.synth_dataset(2, 4, (1, 8, 8), seed=7, noise_std=0.0)
        test = D.synth_dataset(2, 4, (1, 8, 8), seed=7, noise_std=0.0, split="test")
        assert train.images.tobytes() == test.images.tobytes()
        train_n = D.synth_dataset(2, 4, (1, 8, 8), seed=7, split="train")
        test_n = D.synth_dataset(2, 4, (1, 8, 8), seed=7, split="test")
        assert train_n.images.tobytes() != test_n.images.tobytes()

    def test_nearest_template_oracle(self):
        """Nearest-centroid classification on noiseless templates must
        recover labels of sigma=0.1 data almost perfectly."""
        templates = D.synth_dataset(3, 1, (1, 8, 8), seed=8, noise_std=0.0).images
        ds = D.synth_dataset(3, 200, (1, 8, 8), seed=8, noise_std=0.1)
        d2 = ((ds.images[:, None] - templates[None]) ** 2).sum(axis=(2, 3, 4))
        predictions = d2.argmin(axis=1)
        assert (predictions == ds.labels).mean() >= 0.99

    def test_pixels_clamped(self):
        ds = D.synth_dataset(3, 50, (1, 8, 8), seed=9, noise_std=0.5)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestBatches:
    def test_single_batch_when_size_exceeds_n(self):
        ds = D.synth_dataset(2, 3, (1, 8, 8), seed=10)
        got = list(D.batches(ds, 100, seed=0, epoch=0))
        assert len(got) == 1
        assert len(got[0][0]) == 6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 5), st.integers(1, 7))
    def test_partition_property(self, seed, epoch, batch_size):
        ds = D.synth_dataset(2, 5, (1, 8, 8), seed=11)
        seen = []
        for xb, yb in D.batches(ds, batch_size, seed=seed, epoch=epoch):
            assert len(xb) == len(yb) <= batch_size
            seen.extend(x.tobytes() for x in xb)
        assert len(seen) == len(ds)
        assert sorted(seen) == sorted(x.tobytes() for x in ds.images)

    def test_same_seed_epoch_same_order(self):
        ds = D.synth_dataset(2, 8, (1, 8, 8), seed=12)
        a = [y.tobytes() for _, y in D.batches(ds, 3, seed=4, epoch=2)]
        b = [y.tobytes() for _, y in D.batches(ds, 3, seed=4, epoch=2)]
        assert a == b

    def test_epochs_differ(self):
        ds = D.synth_dataset(2, 50, (1, 8, 8), seed=13)
        a = np.concatenate([y for _, y in D.batches(ds, 10, seed=4, epoch=0)])
        b = np.concatenate([y for _, y in D.batches(ds, 10, seed=4, epoch=1)])
        assert a.tobytes() != b.tobytes()

    def test_iterator_advances_epochs(self):
        ds = D.synth_dataset(2, 10, (1, 8, 8), seed=14)
        it = D.BatchIterator(ds, 4, seed=5)
        first = [y.tobytes() for _, y in it.next_epoch()]
        second = [y.tobytes() for _, y in it.next_epoch()]
        assert it.epoch == 2
        assert first != second

    def test_bad_batch_size(self):
        ds = D.synth_dataset(2, 4, (1, 8, 8), seed=15)
        with pytest.raises(ConfigError):
            list(D.batches(ds, 0, seed=0, epoch=0))


class TestStream:
    def test_first_draws_differ_pairwise(self):
        """No two purposes or indices of one seed share generator state, and
        neither does module i of run s and the backbone of run s + i + 1."""
        s = 4
        keys = [(s, D.TEMPLATES), (s, D.TRAIN_NOISE), (s, D.TEST_NOISE), (s, D.BACKBONE)]
        keys += [(s, D.SHUFFLE, epoch) for epoch in range(3)]
        keys += [(s, D.MODULE, i) for i in range(2)]
        keys += [(s, D.EVAL_ATTACK, batch) for batch in range(2)]
        keys += [(s, D.TRAIN_ATTACK, epoch, batch) for epoch in range(3) for batch in range(2)]
        keys += [(s + i + 1, D.BACKBONE) for i in range(2)]
        words = [int(D.stream(*key).integers(2**63)) for key in keys]
        assert len(set(words)) == len(keys)
