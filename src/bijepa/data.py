"""Data sources: noisy sine sequences, Lorenz trajectories, MNIST halves.

Every generator is a pure function of (config, seed). Context/target
splits follow the experiment layouts: sine 10/10 time steps, Lorenz
20/20 time steps flattened to 60 values, MNIST left/right image halves
split at column 14.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .seeding import stream


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or count mismatch."""


@dataclass
class ViewBatch:
    """Paired context/target views with aligned leading batch dims."""

    x: Tensor
    y: Tensor
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.x, Tensor):
            self.x = Tensor(self.x)
        if not isinstance(self.y, Tensor):
            self.y = Tensor(self.y)
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
        """Row-indexed sub-batch (fresh tensors, no graph linkage)."""
        return ViewBatch(
            Tensor(self.x.values[idx]),
            Tensor(self.y.values[idx]),
            None if self.labels is None else self.labels[idx],
        )


# ---------------------------------------------------------------------------
# sine sequences


@dataclass
class SineConfig:
    T: int = 20
    omega_range: tuple[float, float] = (0.8, 1.2)
    phase_range: tuple[float, float] = (0.0, 2.0 * np.pi)
    noise_std: float = 0.05
    batch: int = 64

    def __post_init__(self):
        if self.T % 2 != 0:
            raise ValueError("T must be even for the half/half split")


def gen_sine_batch(cfg: SineConfig, rng) -> ViewBatch:
    """Fresh batch of noisy sinusoids on the unit time grid t_i = i.

    Per sequence: omega ~ U(omega_range), phase ~ U(phase_range),
    S_i = sin(omega*i + phase) + N(0, noise_std). First half is the
    context view, second half the target view.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    b, t = cfg.batch, cfg.T
    omega = rng.uniform(*cfg.omega_range, size=(b, 1))
    phase = rng.uniform(*cfg.phase_range, size=(b, 1))
    grid = np.arange(t, dtype=np.float64)
    s = np.sin(omega * grid + phase) + rng.normal(0.0, cfg.noise_std, size=(b, t))
    half = t // 2
    return ViewBatch(Tensor(s[:, :half]), Tensor(s[:, half:]))


# ---------------------------------------------------------------------------
# Lorenz trajectories


@dataclass
class LorenzConfig:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    T: int = 40
    init_range: tuple[float, float] = (-15.0, 15.0)
    n_train: int = 2000
    n_probe: int = 1000
    n_test: int = 20
    integrator: str = "euler"


def _lorenz_deriv(state: np.ndarray, cfg: LorenzConfig) -> np.ndarray:
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    return np.stack([
        cfg.sigma * (y - x),
        x * (cfg.rho - z) - y,
        x * y - cfg.beta * z,
    ], axis=-1)


def _advance(state: np.ndarray, cfg: LorenzConfig) -> np.ndarray:
    dt = cfg.dt
    if cfg.integrator == "euler":
        return state + dt * _lorenz_deriv(state, cfg)
    if cfg.integrator == "rk4":
        k1 = _lorenz_deriv(state, cfg)
        k2 = _lorenz_deriv(state + 0.5 * dt * k1, cfg)
        k3 = _lorenz_deriv(state + 0.5 * dt * k2, cfg)
        k4 = _lorenz_deriv(state + dt * k3, cfg)
        return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise ValueError(f"unknown integrator {cfg.integrator!r}")


def integrate_lorenz(cfg: LorenzConfig, init, n_steps: int) -> np.ndarray:
    """Trajectory of n_steps rows; row 0 is the initial condition and
    each following row is one integration step from the previous."""
    state = np.asarray(init, dtype=np.float64)
    if state.shape != (3,) or not np.all(np.isfinite(state)):
        raise ValueError(f"init must be 3 finite values, got {init!r}")
    out = np.empty((n_steps, 3))
    out[0] = state
    for k in range(1, n_steps):
        state = _advance(state, cfg)
        if not np.all(np.isfinite(state)):
            raise ValueError(f"non-finite state at step {k}")
        out[k] = state
    return out


@dataclass
class LorenzDataset:
    train: ViewBatch
    probe: ViewBatch
    test: ViewBatch
    mean: np.ndarray = field(default_factory=lambda: np.zeros(3))
    std: np.ndarray = field(default_factory=lambda: np.ones(3))


def build_lorenz_dataset(cfg: LorenzConfig, seed: int) -> LorenzDataset:
    """Sampled trajectories normalized with train-split statistics.

    Each trajectory is T rows integrated from a U(init_range)^3 start,
    normalized per coordinate using mean/std computed over the train
    split only, then cut into a 20-row context and a 20-row target, each
    flattened (20*3 = 60 input values).
    """
    rng = stream(seed, "data:lorenz")
    n_total = cfg.n_train + cfg.n_probe + cfg.n_test
    lo, hi = cfg.init_range
    state = rng.uniform(lo, hi, size=(n_total, 3))
    traj = np.empty((n_total, cfg.T, 3))
    traj[:, 0] = state
    for k in range(1, cfg.T):
        state = _advance(state, cfg)
        if not np.all(np.isfinite(state)):
            raise ValueError(f"non-finite state at step {k}")
        traj[:, k] = state

    train_raw = traj[:cfg.n_train]
    mean = train_raw.reshape(-1, 3).mean(axis=0)
    std = train_raw.reshape(-1, 3).std(axis=0)
    traj = (traj - mean) / std

    half = cfg.T // 2

    def cut(rows: np.ndarray) -> ViewBatch:
        n = rows.shape[0]
        return ViewBatch(Tensor(rows[:, :half].reshape(n, -1)),
                         Tensor(rows[:, half:].reshape(n, -1)))

    return LorenzDataset(
        train=cut(traj[:cfg.n_train]),
        probe=cut(traj[cfg.n_train:cfg.n_train + cfg.n_probe]),
        test=cut(traj[cfg.n_train + cfg.n_probe:]),
        mean=mean,
        std=std,
    )


# ---------------------------------------------------------------------------
# MNIST


@dataclass
class MnistConfig:
    norm_mean: float = 0.1307
    norm_std: float = 0.3081
    split_col: int = 14


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
    n = int(np.prod(dims))
    if len(raw) != header + n:
        raise IdxFormatError(
            f"{path}: payload is {len(raw) - header} bytes, dims {dims} need {n}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_mnist_idx(images_path, labels_path,
                   cfg: MnistConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Images as (N,1,28,28) normalized float64, labels as (N,) int64.

    Pixels scale to [0,1] then shift by the fixed normalization
    constants, so pixel 0 maps to about -0.4242 and 255 to about 2.82.
    """
    cfg = cfg or MnistConfig()
    images = _read_idx(images_path, _IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    if images.shape[1:] != (28, 28):
        raise IdxFormatError(f"expected 28x28 images, got {images.shape[1:]}")
    # in-place: the temporaries of the naive expression triple the
    # transient footprint on the full train file
    pixels = images.astype(np.float64)
    pixels /= 255.0
    pixels -= cfg.norm_mean
    pixels /= cfg.norm_std
    return pixels[:, None, :, :], labels.astype(np.int64)


def split_vertical(images: np.ndarray, labels: np.ndarray | None = None,
                   cfg: MnistConfig | None = None) -> ViewBatch:
    """Left half as context, right half as target: (N,1,28,28) ->
    two (N,1,28,14) views. Concatenating them restores the input."""
    cfg = cfg or MnistConfig()
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1:] != (1, 28, 28):
        raise ValueError(f"expected (N,1,28,28) images, got {images.shape}")
    c = cfg.split_col
    return ViewBatch(Tensor(images[:, :, :, :c]), Tensor(images[:, :, :, c:]),
                     labels=labels)
