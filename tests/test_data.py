"""Dataset plumbing: IDX and CIFAR binary parsing, whitening,
augmentation, and the synthetic digit corpus."""

import os
import struct

import numpy as np
import pytest

from ebssc import DataError
from ebssc.data import CIFAR_RECORD, Dataset, augment, digits_arrays, \
    load_cifar10_bin, load_digits_dir, load_idx, preprocess, save_idx, \
    write_digits_idx


class TestIdxFormat:
    """Round trips and corruption reporting for IDX files."""

    def test_image_round_trip(self, tmp_path):
        """uint8 images come back scaled into [0, 1] float32."""
        rng = np.random.default_rng(42)
        arr = rng.integers(0, 256, (5, 9, 7), dtype=np.uint8)
        path = tmp_path / "imgs"
        save_idx(str(path), arr)
        out = load_idx(str(path))
        assert out.dtype == np.float32 and out.shape == (5, 9, 7)
        np.testing.assert_allclose(out, arr / 255.0, atol=1e-7)

    def test_label_round_trip(self, tmp_path):
        """1-D integer arrays travel through the label layout."""
        labels = np.asarray([0, 3, 9, 1], dtype=np.int64)
        path = tmp_path / "labs"
        save_idx(str(path), labels)
        out = load_idx(str(path))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, labels)

    def test_unknown_magic(self, tmp_path):
        """A wrong magic number names byte offset 0."""
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\0" * 16)
        with pytest.raises(DataError, match="offset 0"):
            load_idx(str(path))

    def test_truncated_payload(self, tmp_path):
        """A short pixel payload reports where the bytes ran out."""
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 0x803, 2, 4, 4) + b"\0" * 10)
        with pytest.raises(DataError, match="truncated at byte offset 26"):
            load_idx(str(path))

    def test_truncated_header(self, tmp_path):
        """Even the magic word can be missing."""
        path = tmp_path / "stub"
        path.write_bytes(b"\0\0")
        with pytest.raises(DataError, match="truncated"):
            load_idx(str(path))

    def test_bad_rank_rejected_on_save(self, tmp_path):
        """Only 1-D labels and 3-D images can be encoded."""
        with pytest.raises(ValueError):
            save_idx(str(tmp_path / "x"), np.zeros((2, 2)))


class TestCifarFormat:
    """The 3073-byte record layout."""

    def _write(self, path, labels, rng):
        recs = []
        for lab in labels:
            recs.append(bytes([lab])
                        + rng.integers(0, 256, 3072, dtype=np.uint8)
                        .tobytes())
        path.write_bytes(b"".join(recs))

    def test_round_trip(self, tmp_path):
        """Records split into labels and (3, 32, 32) planes."""
        rng = np.random.default_rng(42)
        p = tmp_path / "batch.bin"
        self._write(p, [3, 7], rng)
        ds = load_cifar10_bin([str(p)])
        assert ds.images.shape == (2, 3, 32, 32)
        assert ds.images.dtype == np.float32
        np.testing.assert_array_equal(ds.labels, [3, 7])
        assert ds.class_names[3] == "cat"

    def test_multiple_files_concatenate(self, tmp_path):
        """Batches load in the order given."""
        rng = np.random.default_rng(42)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        self._write(a, [0], rng)
        self._write(b, [9, 1], rng)
        ds = load_cifar10_bin([str(a), str(b)])
        np.testing.assert_array_equal(ds.labels, [0, 9, 1])

    def test_partial_record_rejected(self, tmp_path):
        """Files must hold a whole number of records."""
        p = tmp_path / "ragged.bin"
        p.write_bytes(b"\0" * (CIFAR_RECORD + 100))
        with pytest.raises(DataError, match=str(CIFAR_RECORD)):
            load_cifar10_bin([str(p)])

    def test_label_out_of_range(self, tmp_path):
        """A label byte above 9 is reported with its record offset."""
        rng = np.random.default_rng(42)
        p = tmp_path / "badlab.bin"
        self._write(p, [1, 77], rng)
        with pytest.raises(DataError, match=f"offset {CIFAR_RECORD}"):
            load_cifar10_bin([str(p)])


class TestDataset:
    """Container invariants."""

    def test_length_mismatch(self):
        """Image and label counts must agree."""
        with pytest.raises(DataError):
            Dataset(images=np.zeros((3, 1, 4, 4)),
                    labels=np.zeros(2, dtype=np.int64),
                    class_names=("a", "b"))

    def test_label_range(self):
        """Labels index into class_names."""
        with pytest.raises(DataError):
            Dataset(images=np.zeros((2, 1, 4, 4)),
                    labels=np.asarray([0, 5]), class_names=("a", "b"))


class TestPreprocess:
    """Centering plus ZCA whitening with reusable statistics."""

    def test_train_split_is_centered(self, digits_small):
        """Whitened training images have (near) zero pixel means."""
        xtr, ytr, _, _ = digits_small
        ds = Dataset(images=xtr, labels=ytr,
                     class_names=tuple(str(i) for i in range(10)))
        white, _ = preprocess(ds)
        assert white.images.shape == xtr.shape
        means = white.images.reshape(len(ds), -1).mean(axis=0)
        np.testing.assert_allclose(means, 0.0, atol=1e-4)

    def test_stats_reuse_is_exact(self, digits_small):
        """A later split gets the training transform verbatim."""
        xtr, ytr, xte, yte = digits_small
        names = tuple(str(i) for i in range(10))
        _, stats = preprocess(Dataset(images=xtr, labels=ytr,
                                      class_names=names))
        test_ds, stats2 = preprocess(Dataset(images=xte, labels=yte,
                                             class_names=names),
                                     stats=stats)
        assert stats2 is stats
        flat = xte.reshape(len(yte), -1).astype(np.float64)
        want = ((flat - stats.mean) @ stats.matrix).reshape(xte.shape)
        np.testing.assert_allclose(test_ds.images, want.astype(np.float32),
                                   atol=1e-6)

    def test_whitening_matrix_is_symmetric(self, digits_small):
        """ZCA (unlike PCA) keeps the transform symmetric."""
        xtr, ytr, _, _ = digits_small
        ds = Dataset(images=xtr[:100], labels=ytr[:100],
                     class_names=tuple(str(i) for i in range(10)))
        _, stats = preprocess(ds)
        np.testing.assert_allclose(stats.matrix, stats.matrix.T, atol=1e-9)


class TestAugment:
    """Flip-and-crop jitter."""

    def test_shape_and_dtype_preserved(self):
        """Output geometry equals input geometry."""
        rng = np.random.default_rng(42)
        im = rng.random((3, 32, 32)).astype(np.float32)
        out = augment(im, rng)
        assert out.shape == im.shape and out.dtype == im.dtype

    def test_deterministic_under_seed(self):
        """The same generator state yields the same crop."""
        im = np.random.default_rng(42).random((1, 28, 28))
        a = augment(im, np.random.default_rng(7))
        b = augment(im, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_values_come_from_the_image(self):
        """Reflect padding introduces no new pixel values."""
        rng = np.random.default_rng(42)
        im = rng.random((1, 16, 16))
        out = augment(im, rng)
        assert np.isin(out, im).all()


class TestDigitsCorpus:
    """The synthetic stand-in for handwritten digits."""

    def test_shapes_balance_and_range(self):
        """Splits are exactly balanced uint8 28x28 stacks."""
        xtr, ytr, xte, yte = digits_arrays(100, 50, seed=1)
        assert xtr.shape == (100, 28, 28) and xtr.dtype == np.uint8
        assert xte.shape == (50, 28, 28)
        np.testing.assert_array_equal(np.bincount(ytr, minlength=10), 10)
        np.testing.assert_array_equal(np.bincount(yte, minlength=10), 5)

    def test_images_contain_ink(self):
        """Every rendered glyph has a visible stroke."""
        xtr, _, _, _ = digits_arrays(50, 10, seed=2)
        assert ((xtr > 100).sum(axis=(1, 2)) > 10).all()

    def test_deterministic_in_seed(self):
        """One seed, one corpus."""
        a = digits_arrays(20, 10, seed=5)
        b = digits_arrays(20, 10, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_counts_must_balance(self):
        """Non-multiples of 10 cannot be balanced."""
        with pytest.raises(ValueError):
            digits_arrays(17, 10)

    def test_write_and_load_directory(self, tmp_path):
        """The on-disk layout round-trips through load_digits_dir."""
        write_digits_idx(str(tmp_path), n_train=20, n_test=10, seed=3)
        assert sorted(os.listdir(tmp_path)) == [
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte"]
        tr = load_digits_dir(str(tmp_path), "train")
        te = load_digits_dir(str(tmp_path), "test")
        assert tr.images.shape == (20, 1, 28, 28)
        assert te.images.shape == (10, 1, 28, 28)
        assert tr.images.max() <= 1.0
        assert tr.class_names[4] == "4"

    def test_swapped_image_and_label_files(self, tmp_path):
        """An images file that holds labels (and the reverse) is a
        DataError, not an IndexError."""
        write_digits_idx(str(tmp_path), n_train=10, n_test=10, seed=3)
        images = tmp_path / "t10k-images-idx3-ubyte"
        labels = tmp_path / "t10k-labels-idx1-ubyte"
        image_bytes = images.read_bytes()
        images.write_bytes(labels.read_bytes())
        labels.write_bytes(image_bytes)
        with pytest.raises(DataError, match="t10k-images"):
            load_digits_dir(str(tmp_path), "test")
