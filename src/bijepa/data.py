"""Data sources: noisy sine sequences, Lorenz trajectories, MNIST halves.

Every generator is a pure function of (config, seed). Context/target
splits follow the experiment layouts: sine 10/10 time steps, Lorenz
20/20 time steps flattened to 60 values, MNIST left/right image halves
split at column 14.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .seeding import stream


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, negative dims, truncation, or count
    mismatch."""


@dataclass
class ViewBatch:
    """Paired context/target views: C-contiguous float64 arrays of equal length."""

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"batch dims differ: x {self.x.shape[0]} vs y {self.y.shape[0]}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != self.x.shape[0]:
                raise ValueError("labels length differs from batch dim")

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def take(self, idx) -> "ViewBatch":
        """Row-indexed sub-batch (fresh arrays)."""
        return ViewBatch(self.x[idx], self.y[idx],
                         None if self.labels is None else self.labels[idx])


def shuffled_epochs(n: int, batch: int, rng: np.random.Generator, drop_last: bool):
    """Endless epochs of row indices into ``n`` rows: each epoch one fresh
    ``rng.permutation(n)``, cut into ``batch``-row index arrays. An
    epoch's short last array is kept, or dropped with ``drop_last``
    unless it is the epoch's only one."""
    end = n - batch + 1 if drop_last else n
    while True:
        order = rng.permutation(n)
        for start in range(0, max(end, 1), batch):
            yield order[start:start + batch]


# ---------------------------------------------------------------------------
# sine sequences


class SineConfig:
    """The sequence length, the ranges frequencies and phases are drawn
    from, the noise a run adds and its held-out split sizes, all fixed."""

    T: ClassVar[int] = 20
    omega_range: ClassVar[tuple[float, float]] = (0.8, 1.2)
    phase_range: ClassVar[tuple[float, float]] = (0.0, 2.0 * np.pi)
    noise_std: ClassVar[float] = 0.05
    n_probe: ClassVar[int] = 1024
    n_test: ClassVar[int] = 64


def gen_sine_batch(b: int, noise_std: float, rng: np.random.Generator) -> ViewBatch:
    """Fresh batch of ``b`` noisy sinusoids on the unit time grid t_i = i.

    Per sequence: omega ~ U(omega_range), phase ~ U(phase_range),
    S_i = sin(omega*i + phase) + N(0, noise_std). First half is the
    context view, second half the target view. ``rng`` is a named
    stream (``seeding.stream``); a bare seed is not accepted.
    """
    t = SineConfig.T
    omega = rng.uniform(*SineConfig.omega_range, size=(b, 1))
    phase = rng.uniform(*SineConfig.phase_range, size=(b, 1))
    grid = np.arange(t, dtype=np.float64)
    s = np.sin(omega * grid + phase) + rng.normal(0.0, noise_std, size=(b, t))
    half = t // 2
    return ViewBatch(s[:, :half], s[:, half:])


# ---------------------------------------------------------------------------
# Lorenz trajectories


class LorenzConfig:
    """The Lorenz system, its forward Euler step and its dataset, all
    fixed."""

    sigma: ClassVar[float] = 10.0
    rho: ClassVar[float] = 28.0
    beta: ClassVar[float] = 8.0 / 3.0
    dt: ClassVar[float] = 0.01
    T: ClassVar[int] = 40
    init_range: ClassVar[tuple[float, float]] = (-15.0, 15.0)
    n_train: ClassVar[int] = 2000
    n_probe: ClassVar[int] = 1000
    n_test: ClassVar[int] = 20


def _lorenz_deriv(state: np.ndarray) -> np.ndarray:
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    return np.stack([
        LorenzConfig.sigma * (y - x),
        x * (LorenzConfig.rho - z) - y,
        x * y - LorenzConfig.beta * z,
    ], axis=-1)


def integrate_lorenz(init, n_steps: int) -> np.ndarray:
    """Trajectories from a ``(..., 3)`` stack of initial states, shaped
    ``(..., n_steps, 3)``; row 0 is the initial state and each following
    row is one forward Euler step from the previous."""
    state = np.asarray(init, dtype=np.float64)
    if state.ndim == 0 or state.shape[-1] != 3 or not np.all(np.isfinite(state)):
        raise ValueError(f"init must be finite states of 3 values, got {init!r}")
    out = np.empty(state.shape[:-1] + (n_steps, 3))
    out[..., 0, :] = state
    for k in range(1, n_steps):
        state = state + LorenzConfig.dt * _lorenz_deriv(state)
        if not np.all(np.isfinite(state)):
            raise ValueError(f"non-finite state at step {k}")
        out[..., k, :] = state
    return out


@dataclass
class LorenzDataset:
    train: ViewBatch
    probe: ViewBatch
    test: ViewBatch


def build_lorenz_dataset(seed: int) -> LorenzDataset:
    """Sampled trajectories normalized with train-split statistics.

    Each trajectory is T rows integrated from a U(init_range)^3 start,
    normalized per coordinate using mean/std computed over the train
    split only, then cut into a 20-row context and a 20-row target, each
    flattened (20*3 = 60 input values).

    All starts come from one draw; the splits are then integrated,
    normalized and cut one at a time, train first, so only one split's
    trajectories are ever held beside the views already cut.
    """
    cfg = LorenzConfig
    n_total = cfg.n_train + cfg.n_probe + cfg.n_test
    init = stream(seed, "data:lorenz").uniform(*cfg.init_range, size=(n_total, 3))
    half = cfg.T // 2

    def trajectories(start: int, stop: int) -> np.ndarray:
        return integrate_lorenz(init[start:stop], cfg.T)

    def cut(traj: np.ndarray) -> ViewBatch:
        # in place: rounds exactly like (traj - mean) / std, without its temporaries
        traj -= mean
        traj /= std
        n = traj.shape[0]
        return ViewBatch(traj[:, :half].reshape(n, -1), traj[:, half:].reshape(n, -1))

    traj = trajectories(0, cfg.n_train)
    mean = traj.reshape(-1, 3).mean(axis=0)
    std = traj.reshape(-1, 3).std(axis=0)
    train = cut(traj)
    del traj  # freed before the next split is integrated
    return LorenzDataset(
        train=train,
        probe=cut(trajectories(cfg.n_train, cfg.n_train + cfg.n_probe)),
        test=cut(trajectories(cfg.n_train + cfg.n_probe, n_total)),
    )


# ---------------------------------------------------------------------------
# MNIST


# pixels in [0,1] are shifted and scaled by these; column 14 splits a
# digit into its context (left) and target (right) halves
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081
MNIST_SPLIT_COL = 14


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path, magic: int, rank: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    header = 4 * (1 + rank)
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated header")
    got = struct.unpack(">i", raw[:4])[0]
    if got != magic:
        raise IdxFormatError(f"{path}: magic 0x{got:08x}, expected 0x{magic:08x}")
    dims = struct.unpack(f">{rank}i", raw[4:header])
    if any(d < 0 for d in dims):
        raise IdxFormatError(f"{path}: negative dims {dims}")
    n = math.prod(dims)
    if len(raw) != header + n:
        raise IdxFormatError(
            f"{path}: payload is {len(raw) - header} bytes, dims {dims} need {n}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def _read_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The raw (N,28,28) uint8 images and (N,) uint8 labels of an IDX pair."""
    images = _read_idx(images_path, _IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    if images.shape[1:] != (28, 28):
        raise IdxFormatError(f"expected 28x28 images, got {images.shape[1:]}")
    return images, labels


def _normalize_pixels(pixels: np.ndarray) -> None:
    """Scale float64 grey levels to [0,1] and shift and scale them by the
    fixed constants, in place: the temporaries of the naive expression
    would triple the transient footprint."""
    pixels /= 255.0
    pixels -= MNIST_MEAN
    pixels /= MNIST_STD


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Images as (N,1,28,28) normalized float64, labels as (N,) int64.

    Pixels scale to [0,1] then shift by the fixed normalization
    constants, so pixel 0 maps to about -0.4242 and 255 to about 2.82.
    """
    images, labels = _read_mnist(images_path, labels_path)
    pixels = images.astype(np.float64)
    _normalize_pixels(pixels)
    return pixels[:, None, :, :], labels.astype(np.int64)


def load_mnist_halves(images_path, labels_path, limit: int) -> ViewBatch:
    """The first ``limit`` images of an IDX pair (all of them when
    ``limit`` is 0), split as by ``split_vertical`` and normalized as by
    ``load_mnist_idx``, with int64 labels.

    Rows and columns are cut from the uint8 file, so each half is
    converted to float64 once and the whole file never is. The
    normalization is elementwise, so the bits equal those of splitting
    ``load_mnist_idx``'s output.
    """
    images, labels = _read_mnist(images_path, labels_path)
    if limit:
        images, labels = images[:limit], labels[:limit]
    views = split_vertical(images[:, None, :, :], labels.astype(np.int64))
    _normalize_pixels(views.x)
    _normalize_pixels(views.y)
    return views


def split_vertical(images: np.ndarray, labels: np.ndarray | None = None) -> ViewBatch:
    """Left half as context, right half as target: (N,1,28,28) ->
    two (N,1,28,14) float64 views. Concatenating them restores the input."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1:] != (1, 28, 28):
        raise ValueError(f"expected (N,1,28,28) images, got {images.shape}")
    c = MNIST_SPLIT_COL
    return ViewBatch(images[:, :, :, :c], images[:, :, :, c:], labels=labels)


def denormalize_to_u8(pixels: np.ndarray) -> np.ndarray:
    """Invert the loader's normalization and quantize to [0,255]."""
    v = (pixels * MNIST_STD + MNIST_MEAN) * 255.0
    return np.clip(np.rint(v), 0, 255).astype(np.uint8)
