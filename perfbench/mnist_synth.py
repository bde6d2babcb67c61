"""Seeded MNIST-format inputs for the ``mnist-synth`` workload.

Real MNIST is not in the repository, so the benchmark writes the four
IDX files itself. Each of the ten classes has one fixed 28x28 template
(two blobs in the left half, two in the right); a sample is its class
template at a random gain plus Gaussian pixel noise, quantized to uint8.
The templates never change; the workload seed draws labels, gains and
noise. The left half therefore identifies the class (the classify probe
has something to learn) and predicts the right half (so does the
decoder).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

TEMPLATE_SEED = 20260301
NOISE_STD = 25.0  # grey levels, out of 255
GAIN_RANGE = (0.8, 1.0)
SPLIT_COL = 14

IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def class_templates() -> np.ndarray:
    """(10, 28, 28) float templates in [0, 1], identical for every seed."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    yy, xx = np.mgrid[0:28, 0:28]
    templates = np.zeros((10, 28, 28))
    for c in range(10):
        for lo, hi in ((3.0, 11.0), (3.0, 11.0), (17.0, 25.0), (17.0, 25.0)):
            cy = rng.uniform(5.0, 23.0)
            cx = rng.uniform(lo, hi)
            sy, sx = rng.uniform(1.5, 3.5, size=2)
            templates[c] += np.exp(-((yy - cy) ** 2 / (2 * sy ** 2)
                                     + (xx - cx) ** 2 / (2 * sx ** 2)))
        templates[c] /= templates[c].max()
    return templates


def _sample(rng: np.random.Generator, n: int, templates: np.ndarray):
    labels = rng.integers(0, 10, size=n)
    gain = rng.uniform(*GAIN_RANGE, size=(n, 1, 1))
    pixels = templates[labels] * gain * 255.0 + rng.normal(0.0, NOISE_STD, size=(n, 28, 28))
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def _write_idx(path: Path, array: np.ndarray, magic: int) -> None:
    header = struct.pack(f">i{array.ndim}i", magic, *array.shape)
    path.write_bytes(header + np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def nearest_template_accuracy(images: np.ndarray, labels: np.ndarray,
                              templates: np.ndarray) -> float:
    """Accuracy of a least-squares template match on the left halves
    alone: the class information the generator puts in a probe's input."""
    left = images[:, :, :SPLIT_COL].reshape(len(images), -1).astype(np.float64)
    tl = templates[:, :, :SPLIT_COL].reshape(10, -1) * 255.0
    # best gain per (sample, class), then the residual of that fit
    gain = (left @ tl.T) / (tl * tl).sum(axis=1)
    resid = (left * left).sum(axis=1)[:, None] - gain * (left @ tl.T)
    return float((resid.argmin(axis=1) == labels).mean())


def write_mnist_synth(out_dir: Path, seed: int, n_train: int, n_test: int) -> float:
    """Write the four IDX files into ``out_dir``; returns the
    nearest-template accuracy of the test split."""
    out_dir.mkdir(parents=True, exist_ok=True)
    templates = class_templates()
    rng = np.random.default_rng([int(seed), TEMPLATE_SEED])
    ref_acc = 0.0
    for split, n in (("train", n_train), ("test", n_test)):
        images, labels = _sample(rng, n, templates)
        img_name, lbl_name = IDX_NAMES[split]
        _write_idx(out_dir / img_name, images, 0x00000803)
        _write_idx(out_dir / lbl_name, labels, 0x00000801)
        if split == "test":
            ref_acc = nearest_template_accuracy(images, labels, templates)
    return ref_acc
