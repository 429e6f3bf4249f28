"""Dataset ingestion, preprocessing, and augmentation.

Two on-disk formats are understood:

* IDX (big-endian magic + dims + raw bytes) for digit data; and
* the CIFAR-10 binary layout of 3073-byte records (1 label byte followed
  by a channel-planar 32x32x3 image).

Parsing is total: malformed bytes raise DataError with the offending byte
offset instead of crashing.  A deterministic synthetic digit corpus
(stroke glyphs under random affine jitter and noise) is provided so the
digit pipeline can be exercised without shipping any external data; it is
written through the same IDX files the loaders consume.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "Whitening", "load_idx", "save_idx",
           "load_cifar10_bin", "load_digits_dir", "whiten", "preprocess",
           "augment",
           "digits_arrays", "write_digits_idx", "DIGIT_NAMES",
           "CIFAR10_NAMES"]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073

DIGIT_NAMES = tuple(str(d) for d in range(10))
CIFAR10_NAMES = ("airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck")


@dataclass
class Whitening:
    """Per-pixel mean and ZCA matrix estimated from a training split."""

    mean: np.ndarray
    matrix: np.ndarray


@dataclass
class Dataset:
    """Images (N, C, H, W) float32 with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError(
                f"{len(self.images)} images but {len(self.labels)} labels")
        if len(self.labels) and self.labels.max() >= len(self.class_names):
            raise DataError(
                f"label {int(self.labels.max())} out of range for "
                f"{len(self.class_names)} classes")

    def __len__(self):
        return len(self.labels)


def _read_exact(fh, n, offset, path):
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError(
            f"{path}: truncated at byte offset {offset + len(buf)}")
    return buf


def load_idx(path):
    """Parse one IDX file: images scaled to float32 [0, 1], or labels."""
    with open(path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, 0, path))[0]
        if magic == IDX_LABELS_MAGIC:
            n = struct.unpack(">I", _read_exact(fh, 4, 4, path))[0]
            raw = _read_exact(fh, n, 8, path)
            return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if magic == IDX_IMAGES_MAGIC:
            n, h, w = struct.unpack(">III", _read_exact(fh, 12, 4, path))
            raw = _read_exact(fh, n * h * w, 16, path)
            img = np.frombuffer(raw, dtype=np.uint8).reshape(n, h, w)
            return img.astype(np.float32) / 255.0
        raise DataError(f"{path}: unknown IDX magic 0x{magic:08x} at "
                        "byte offset 0")


def save_idx(path, array):
    """Write labels (1-D integer) or images (3-D uint8) as IDX."""
    arr = np.asarray(array)
    with open(path, "wb") as fh:
        if arr.ndim == 1:
            fh.write(struct.pack(">II", IDX_LABELS_MAGIC, arr.shape[0]))
            fh.write(arr.astype(np.uint8).tobytes())
        elif arr.ndim == 3:
            fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *arr.shape))
            fh.write(arr.astype(np.uint8).tobytes())
        else:
            raise ValueError(f"cannot encode rank-{arr.ndim} array as IDX")


def load_cifar10_bin(paths):
    """Read CIFAR-10 binary batches into one Dataset."""
    images, labels = [], []
    for path in paths:
        size = os.path.getsize(path)
        if size == 0 or size % CIFAR_RECORD:
            raise DataError(
                f"{path}: not a whole number of {CIFAR_RECORD}-byte "
                f"records; trailing bytes start at offset "
                f"{size - size % CIFAR_RECORD}")
        with open(path, "rb") as fh:
            raw = np.frombuffer(fh.read(), dtype=np.uint8)
        recs = raw.reshape(-1, CIFAR_RECORD)
        lab = recs[:, 0]
        if lab.max(initial=0) > 9:
            bad = int(np.argmax(lab > 9))
            raise DataError(
                f"{path}: label {int(lab[bad])} > 9 at byte offset "
                f"{bad * CIFAR_RECORD}")
        labels.append(lab.astype(np.int64))
        images.append(recs[:, 1:].reshape(-1, 3, 32, 32)
                      .astype(np.float32) / 255.0)
    return Dataset(images=np.concatenate(images),
                   labels=np.concatenate(labels),
                   class_names=CIFAR10_NAMES)


def load_digits_dir(path, split):
    """Load the train or t10k IDX pair from a directory."""
    stem = {"train": "train", "test": "t10k"}[split]
    images_path = os.path.join(path, f"{stem}-images-idx3-ubyte")
    labels_path = os.path.join(path, f"{stem}-labels-idx1-ubyte")
    images, labels = load_idx(images_path), load_idx(labels_path)
    if images.ndim != 3:
        raise DataError(f"{images_path}: holds labels, not images")
    if labels.ndim != 1:
        raise DataError(f"{labels_path}: holds images, not labels")
    return Dataset(images=images[:, None, :, :], labels=labels,
                   class_names=DIGIT_NAMES)


ZCA_FLOOR = 0.1


def whiten(images, stats):
    """Apply stored whitening statistics to (N, C, H, W) images."""
    shape = images.shape
    flat = images.reshape(shape[0], math.prod(shape[1:])).astype(np.float64)
    white = (flat - stats.mean) @ stats.matrix
    return white.reshape(shape).astype(np.float32)


def preprocess(dataset, stats=None):
    """Center and ZCA-whiten; training statistics are reused verbatim on
    any later split passed with ``stats``.  Returns (dataset, stats).
    Estimating statistics from an empty split is a DataError."""
    if stats is None:
        n = len(dataset.images)
        if n == 0:
            raise DataError("cannot estimate whitening statistics from an "
                            "empty split")
        flat = dataset.images.reshape(n, -1).astype(np.float64)
        mean = flat.mean(axis=0)
        centered = flat - mean
        cov = centered.T @ centered / n
        lam, u = np.linalg.eigh(cov)
        matrix = (u * (1.0 / np.sqrt(lam + ZCA_FLOOR))) @ u.T
        stats = Whitening(mean=mean, matrix=matrix)
    return Dataset(images=whiten(dataset.images, stats),
                   labels=dataset.labels,
                   class_names=dataset.class_names), stats


def augment(image, rng, pad=4):
    """Random horizontal flip (p = 0.5) and a random crop from a
    reflect-padded copy; output size equals input size."""
    c, h, w = image.shape
    if rng.random() < 0.5:
        image = image[..., ::-1]
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    dy, dx = rng.integers(0, 2 * pad + 1, size=2)
    return np.ascontiguousarray(padded[:, dy:dy + h, dx:dx + w])


# --- synthetic digit corpus ------------------------------------------------

def _circle(cx, cy, rx, ry, n=14, start=0.0, sweep=2 * np.pi):
    a = start + sweep * np.arange(n + 1) / n
    return np.stack([cx + rx * np.sin(a), cy - ry * np.cos(a)], axis=1)

_GLYPHS = {
    0: [_circle(0.5, 0.5, 0.21, 0.31)],
    1: [np.array([[0.38, 0.3], [0.53, 0.15], [0.53, 0.85]])],
    2: [np.array([[0.31, 0.3], [0.36, 0.19], [0.5, 0.15], [0.64, 0.2],
                  [0.68, 0.33], [0.6, 0.48], [0.32, 0.85], [0.72, 0.85]])],
    3: [np.array([[0.32, 0.24], [0.5, 0.15], [0.66, 0.25], [0.64, 0.4],
                  [0.48, 0.49]]),
        np.array([[0.48, 0.49], [0.68, 0.58], [0.7, 0.74], [0.52, 0.85],
                  [0.32, 0.77]])],
    4: [np.array([[0.63, 0.85], [0.63, 0.15], [0.3, 0.62], [0.76, 0.62]])],
    5: [np.array([[0.7, 0.15], [0.36, 0.15], [0.33, 0.46], [0.55, 0.42],
                  [0.69, 0.54], [0.68, 0.73], [0.5, 0.85], [0.31, 0.77]])],
    6: [np.array([[0.64, 0.16], [0.45, 0.32], [0.36, 0.52], [0.35, 0.7]]),
        _circle(0.51, 0.67, 0.17, 0.17)],
    7: [np.array([[0.3, 0.15], [0.71, 0.15], [0.46, 0.85]])],
    8: [_circle(0.5, 0.33, 0.15, 0.17), _circle(0.5, 0.68, 0.19, 0.18)],
    9: [_circle(0.5, 0.35, 0.16, 0.19),
        np.array([[0.66, 0.38], [0.63, 0.61], [0.56, 0.85]])],
}

_PEN_SIGMA = 0.045
_SAMPLE_STEP = 0.02


def _stroke_points(label):
    pts = []
    for line in _GLYPHS[label]:
        for a, b in zip(line[:-1], line[1:]):
            seg = np.linalg.norm(b - a)
            n = max(int(np.ceil(seg / _SAMPLE_STEP)), 1)
            t = np.arange(n)[:, None] / n
            pts.append(a + t * (b - a))
        pts.append(line[-1:])
    return np.concatenate(pts)


def _render(points, side):
    grid = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(grid, grid, indexing="xy")
    d2 = ((gx[None] - points[:, 0, None, None]) ** 2
          + (gy[None] - points[:, 1, None, None]) ** 2)
    return np.exp(-d2.min(axis=0) / (2.0 * _PEN_SIGMA ** 2))


def _jitter(points, rng):
    theta = rng.uniform(-0.2, 0.2)
    sx, sy = rng.uniform(0.85, 1.15, size=2)
    shear = rng.uniform(-0.15, 0.15)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    mat = rot @ np.array([[sx, shear * sx], [0.0, sy]])
    shift = rng.uniform(-0.05, 0.05, size=2)
    return (points - 0.5) @ mat.T + 0.5 + shift


def digits_arrays(n_train=1000, n_test=10000, seed=1234):
    """Deterministic synthetic digit corpus with balanced classes.

    Returns (train_images u8 (N,28,28), train_labels, test_images,
    test_labels).  Counts must be multiples of 10 so the splits stay
    exactly balanced."""
    if n_train % 10 or n_test % 10:
        raise ValueError("digit splits must be multiples of 10")
    rng = np.random.default_rng(seed)

    def make(count):
        labels = np.tile(np.arange(10), count // 10)
        images = np.empty((count, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            pts = _jitter(_stroke_points(int(lab)), rng)
            img = _render(pts, 28) * rng.uniform(0.82, 1.0)
            img = img + rng.normal(0.0, 0.04, img.shape)
            images[i] = (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
        order = rng.permutation(count)
        return images[order], labels[order]

    xtr, ytr = make(n_train)
    xte, yte = make(n_test)
    return xtr, ytr, xte, yte


def write_digits_idx(directory, n_train=1000, n_test=10000, seed=1234):
    """Materialize the synthetic corpus as the four standard IDX files."""
    os.makedirs(directory, exist_ok=True)
    xtr, ytr, xte, yte = digits_arrays(n_train, n_test, seed)
    save_idx(os.path.join(directory, "train-images-idx3-ubyte"), xtr)
    save_idx(os.path.join(directory, "train-labels-idx1-ubyte"), ytr)
    save_idx(os.path.join(directory, "t10k-images-idx3-ubyte"), xte)
    save_idx(os.path.join(directory, "t10k-labels-idx1-ubyte"), yte)
    return directory
