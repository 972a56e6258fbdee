"""Dataset loading, preprocessing, and deterministic batch iteration.

Supported sources: the CIFAR-10 binary format (3073-byte records), the
MNIST idx format, and a synthetic class-conditional Gaussian-blob
generator for fast end-to-end runs. Batch order and augmentation draws
come from a counter-based generator keyed on (seed, epoch), with a
separate key lane per draw kind, so a stream can be replayed bitwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent dataset input."""


CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Images in [0,1] as float32 [N,C,H,W] plus integer labels."""
    images: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataError(f"images must be [N,C,H,W], got shape "
                            f"{self.images.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise DataError(f"{self.images.shape[0]} images but "
                            f"{self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise DataError(f"labels must lie in [0, {self.class_count}), "
                            f"found {int(self.labels.min())}.."
                            f"{int(self.labels.max())}")

    @property
    def n(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class AugmentConfig:
    """Per-batch preprocessing: optional flip, padded crop, normalization.

    crop_size restores the stated target from an image zero-padded by
    crop_pad on every side; offsets are random unless center_crop is
    set. normalization is a per-channel (mean, std) pair applied last,
    after the geometric transforms.
    """
    flip_prob: float = 0.0
    crop_size: tuple[int, int] | None = None
    crop_pad: int = 4
    center_crop: bool = False
    normalization: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0,1], got {self.flip_prob}")
        if self.crop_pad < 0:
            raise ValueError(f"crop_pad must be >= 0, got {self.crop_pad}")


def channel_stats(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over a split, for AugmentConfig.normalization."""
    mean = ds.images.mean(axis=(0, 2, 3), dtype=np.float64)
    std = ds.images.std(axis=(0, 2, 3), dtype=np.float64)
    return mean.astype(np.float32), np.maximum(std, 1e-6).astype(np.float32)


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def _parse_cifar_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % CIFAR_RECORD != 0:
        offset = (len(raw) // CIFAR_RECORD) * CIFAR_RECORD
        raise DataError(f"{os.path.basename(path)}: truncated record at byte "
                        f"offset {offset} (file size {len(raw)} is not a "
                        f"multiple of {CIFAR_RECORD})")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise DataError(f"{os.path.basename(path)}: record {bad}: label byte "
                        f"{int(labels[bad])} out of range 0..9")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_cifar10(dir_path: str) -> tuple[Dataset, Dataset]:
    """Load the 6 standard binary batch files into train/test splits."""
    train_files = [os.path.join(dir_path, f"data_batch_{i}") for i in range(1, 6)]
    test_file = os.path.join(dir_path, "test_batch")
    for p in train_files + [test_file]:
        if not os.path.exists(p):
            raise DataError(f"missing dataset file {p}")
    parts = [_parse_cifar_file(p) for p in train_files]
    train = Dataset(np.concatenate([im for im, _ in parts]),
                    np.concatenate([lb for _, lb in parts]), 10, "train")
    test = Dataset(*_parse_cifar_file(test_file), 10, "test")
    return train, test


def _read_u32be(buf: bytes, pos: int, name: str) -> int:
    if pos + 4 > len(buf):
        raise DataError(f"{name}: header truncated at byte {pos}")
    return int.from_bytes(buf[pos:pos + 4], "big")


def _parse_idx_images(path: str) -> np.ndarray:
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = _read_u32be(raw, 0, name)
    if magic != MNIST_IMAGE_MAGIC:
        raise DataError(f"{name}: bad magic 0x{magic:08x}, expected "
                        f"0x{MNIST_IMAGE_MAGIC:08x}")
    n = _read_u32be(raw, 4, name)
    rows = _read_u32be(raw, 8, name)
    cols = _read_u32be(raw, 12, name)
    body = raw[16:]
    if len(body) != n * rows * cols:
        raise DataError(f"{name}: expected {n * rows * cols} pixel bytes for "
                        f"{n} images of {rows}x{cols}, found {len(body)}")
    pixels = np.frombuffer(body, dtype=np.uint8)
    return pixels.reshape(n, 1, rows, cols).astype(np.float32) / 255.0


def _parse_idx_labels(path: str) -> np.ndarray:
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = _read_u32be(raw, 0, name)
    if magic != MNIST_LABEL_MAGIC:
        raise DataError(f"{name}: bad magic 0x{magic:08x}, expected "
                        f"0x{MNIST_LABEL_MAGIC:08x}")
    n = _read_u32be(raw, 4, name)
    body = raw[8:]
    if len(body) != n:
        raise DataError(f"{name}: header promises {n} labels, found "
                        f"{len(body)} bytes")
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def _load_idx_split(dir_path: str, images_name: str, labels_name: str,
                    split: str) -> Dataset:
    images = _parse_idx_images(os.path.join(dir_path, images_name))
    labels = _parse_idx_labels(os.path.join(dir_path, labels_name))
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images_name} has {images.shape[0]} images but "
                        f"{labels_name} has {labels.shape[0]} labels")
    return Dataset(images, labels, 10, split)


def load_mnist_idx(dir_path: str) -> tuple[Dataset, Dataset]:
    train = _load_idx_split(dir_path, "train-images-idx3-ubyte",
                            "train-labels-idx1-ubyte", "train")
    test = _load_idx_split(dir_path, "t10k-images-idx3-ubyte",
                           "t10k-labels-idx1-ubyte", "test")
    return train, test


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synthetic_dataset(seed: int, n: int, classes: int, size: int,
                      channels: int = 3, split: str = "train") -> Dataset:
    """Class-conditional Gaussian blobs on a noisy background.

    Class c places a bright blob at a fixed angle around the image
    center with a class-specific per-channel amplitude; sample-level
    jitter moves the blob a little and perturbs the background. Labels
    cycle 0..classes-1 so counts stay balanced.
    """
    if n < classes:
        raise DataError(f"need at least one sample per class: n={n} < "
                        f"classes={classes}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x5D]))
    labels = np.arange(n, dtype=np.int64) % classes

    angles = 2.0 * np.pi * np.arange(classes) / classes
    radius = size / 4.0
    centers = np.stack([size / 2.0 + radius * np.sin(angles),
                        size / 2.0 + radius * np.cos(angles)], axis=1)
    ch_phase = 2.0 * np.pi * np.arange(channels) / max(channels, 1)
    amps = 0.45 + 0.3 * np.cos(angles[:, None] + ch_phase[None, :])

    jitter = rng.normal(scale=size / 16.0, size=(n, 2))
    cy = centers[labels, 0] + jitter[:, 0]
    cx = centers[labels, 1] + jitter[:, 1]
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    sigma2 = 2.0 * (size / 6.0) ** 2
    blob = np.exp(-((yy[None] - cy[:, None, None]) ** 2
                    + (xx[None] - cx[:, None, None]) ** 2) / sigma2)

    noise = rng.normal(scale=0.05, size=(n, channels, size, size))
    images = 0.2 + amps[labels][:, :, None, None] * blob[:, None] + noise
    images = np.clip(images, 0.0, 1.0).astype(np.float32)
    return Dataset(images, labels, classes, split)


# ---------------------------------------------------------------------------
# batch iteration
# ---------------------------------------------------------------------------

def _lane_rng(seed: int, epoch: int, lane: int) -> np.random.Generator:
    # One Philox key per (seed, epoch, lane); lanes keep the permutation,
    # flip, and crop draws independent of one another and of batch size.
    return np.random.Generator(np.random.Philox(key=[seed, epoch * 8 + lane]))


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _crop_batch(images: np.ndarray, cfg: AugmentConfig,
                offsets: np.ndarray) -> np.ndarray:
    th, tw = cfg.crop_size
    p = cfg.crop_pad
    padded = np.pad(images, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.empty(images.shape[:2] + (th, tw), dtype=images.dtype)
    for i, (oy, ox) in enumerate(offsets):
        out[i] = padded[i, :, oy:oy + th, ox:ox + tw]
    return out


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int,
            augment: AugmentConfig | None = None, shuffle: bool = True):
    """Yield (images, one_hot_labels) covering the split exactly once.

    The sample order and every augmentation draw are functions of
    (seed, epoch) alone, so re-running the generator reproduces the
    stream bitwise. The final batch may be smaller than batch_size.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = ds.n
    if shuffle:
        order = _lane_rng(seed, epoch, 0).permutation(n)
    else:
        order = np.arange(n)

    flip_u = crop_off = None
    if augment is not None and augment.flip_prob > 0.0:
        flip_u = _lane_rng(seed, epoch, 1).random(n)
    if augment is not None and augment.crop_size is not None:
        _, _, h, w = ds.images.shape
        th, tw = augment.crop_size
        max_oy = h + 2 * augment.crop_pad - th
        max_ox = w + 2 * augment.crop_pad - tw
        if max_oy < 0 or max_ox < 0:
            raise ValueError(f"crop {th}x{tw} exceeds padded size "
                             f"{h + 2 * augment.crop_pad}x"
                             f"{w + 2 * augment.crop_pad}")
        if augment.center_crop:
            crop_off = np.tile([[max_oy // 2, max_ox // 2]], (n, 1))
        else:
            rng = _lane_rng(seed, epoch, 2)
            crop_off = np.stack([rng.integers(0, max_oy + 1, size=n),
                                 rng.integers(0, max_ox + 1, size=n)], axis=1)

    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        images = ds.images[idx]
        if crop_off is not None:
            images = _crop_batch(images, augment, crop_off[start:start + len(idx)])
        if flip_u is not None:
            do = flip_u[start:start + len(idx)] < augment.flip_prob
            images = images.copy()
            images[do] = images[do, :, :, ::-1]
        if augment is not None and augment.normalization is not None:
            mean, std = augment.normalization
            images = (images - mean[None, :, None, None]) \
                / std[None, :, None, None]
        yield images.astype(np.float32, copy=False), \
            _one_hot(ds.labels[idx], ds.class_count)
