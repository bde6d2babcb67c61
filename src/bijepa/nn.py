"""Layer specifications, network builders, initialization, and checkpoints.

A Network is an ordered list of layers applied in sequence. Three builders
cover every architecture used by the experiments: a two-hidden-layer MLP
encoder, a one-hidden-layer predictor, and the fixed conv encoder for
half-image inputs.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import RunningStats, Tensor


class SpecMismatchError(ValueError):
    """Two networks whose layer specs disagree."""


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


class Layer:
    """Base layer: a spec, named parameters and buffers, an initializer
    and a forward. The defaults describe a layer without state."""

    def spec(self):
        return (type(self).__name__,)

    def params(self):
        return []

    def buffers(self):
        return []

    def init(self, rng) -> None:
        pass


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"Linear dims must be >= 1, got ({in_dim}, {out_dim})")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = Tensor(np.zeros((in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def spec(self):
        return ("Linear", self.in_dim, self.out_dim)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def init(self, rng: np.random.Generator) -> None:
        bound = 1.0 / np.sqrt(self.in_dim)
        self.w.values[...] = rng.uniform(-bound, bound, self.w.shape)
        self.b.values[...] = 0.0

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Layer):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def spec(self):
        return ("LayerNorm", self.dim)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def init(self, rng) -> None:
        self.gamma.values[...] = 1.0
        self.beta.values[...] = 0.0

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, self.eps)


class ReLU(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.relu(x)


class Conv2d(Layer):
    """3x3 kernel, stride 2, zero-padding 1 (the only configuration used)."""

    def __init__(self, in_ch: int, out_ch: int):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.k = Tensor(np.zeros((out_ch, in_ch, 3, 3)), requires_grad=True)
        self.b = Tensor(np.zeros(out_ch), requires_grad=True)

    def spec(self):
        return ("Conv2d", self.in_ch, self.out_ch)

    def params(self):
        return [("k", self.k), ("b", self.b)]

    def init(self, rng: np.random.Generator) -> None:
        bound = 1.0 / np.sqrt(self.in_ch * 9)
        self.k.values[...] = rng.uniform(-bound, bound, self.k.shape)
        self.b.values[...] = 0.0

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.conv2d(x, self.k, self.b, stride=2, pad=1)


class BatchNorm2d(Layer):
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.stats = RunningStats.for_channels(channels, momentum)

    def spec(self):
        return ("BatchNorm2d", self.channels)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.stats.mean), ("running_var", self.stats.var)]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name == "running_mean":
            self.stats.mean = value.copy()
        elif name == "running_var":
            self.stats.var = value.copy()
        else:
            raise KeyError(name)

    def init(self, rng) -> None:
        self.gamma.values[...] = 1.0
        self.beta.values[...] = 0.0
        self.stats.mean[...] = 0.0
        self.stats.var[...] = 1.0

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.batch_norm2d(x, self.gamma, self.beta, self.stats, training, self.eps)


class Flatten(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.flatten(x)


class Network:
    """Ordered layer stack with an explicit train/eval mode."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.mode = "train"

    def train(self) -> "Network":
        self.mode = "train"
        return self

    def eval(self) -> "Network":
        self.mode = "eval"
        return self

    def forward(self, x: Tensor) -> Tensor:
        training = self.mode == "train"
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    __call__ = forward

    def spec(self) -> tuple:
        return tuple(layer.spec() for layer in self.layers)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, t in layer.params():
                out.append((f"{i}.{name}", t))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.buffers():
                out.append((f"{i}.{name}", arr))
        return out

    def param_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        d = {name: t.values.copy() for name, t in self.named_parameters()}
        for name, arr in self.named_buffers():
            d[name] = arr.copy()
        return d

    def load_state_dict(self, d: dict[str, np.ndarray]) -> None:
        expected = {name for name, _ in self.named_parameters()}
        expected |= {name for name, _ in self.named_buffers()}
        if expected != set(d):
            missing = expected - set(d)
            extra = set(d) - expected
            raise SpecMismatchError(
                f"state dict mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, t in self.named_parameters():
            src = np.asarray(d[name], dtype=np.float64)
            if src.shape != t.shape:
                raise SpecMismatchError(
                    f"shape mismatch for {name}: {src.shape} vs {t.shape}")
            t.values[...] = src
        for i, layer in enumerate(self.layers):
            for name, arr in layer.buffers():
                src = np.asarray(d[f"{i}.{name}"], dtype=np.float64)
                if src.shape != arr.shape:
                    raise SpecMismatchError(
                        f"shape mismatch for {i}.{name}: {src.shape} vs {arr.shape}")
                layer.set_buffer(name, src)


# ---------------------------------------------------------------------------
# builders


def build_mlp_encoder(in_dim: int, hidden: int, out_dim: int, with_ln: bool) -> Network:
    """Two hidden layers; with_ln=False drops both normalizations."""
    layers: list = [Linear(in_dim, hidden)]
    if with_ln:
        layers.append(LayerNorm(hidden))
    layers.append(ReLU())
    layers.append(Linear(hidden, hidden))
    if with_ln:
        layers.append(LayerNorm(hidden))
    layers.append(ReLU())
    layers.append(Linear(hidden, out_dim))
    return Network(layers)


def build_predictor(dim: int, hidden: int, with_ln: bool) -> Network:
    """Embedding-to-embedding map with one hidden layer."""
    layers: list = [Linear(dim, hidden)]
    if with_ln:
        layers.append(LayerNorm(hidden))
    layers.append(ReLU())
    layers.append(Linear(hidden, dim))
    return Network(layers)


def build_conv_encoder() -> Network:
    """Half-image encoder: (B,1,28,14) -> (B,64).

    Two stride-2 convs take 28x14 to 7x4, so the flatten width is
    64*7*4 = 1792.
    """
    return Network([
        Conv2d(1, 32),
        BatchNorm2d(32),
        ReLU(),
        Conv2d(32, 64),
        BatchNorm2d(64),
        ReLU(),
        Flatten(),
        Linear(1792, 128),
        LayerNorm(128),
        ReLU(),
        Linear(128, 64),
    ])


def init_parameters(net: Network, seed: int) -> None:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases,
    gamma=1, beta=0. Deterministic given seed."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        layer.init(rng)


def clone_into(src: Network, dst: Network) -> None:
    """Copy src parameter and buffer values into dst. No gradient linkage."""
    if src.spec() != dst.spec():
        raise SpecMismatchError(
            f"cannot clone between different specs:\n  {src.spec()}\n  {dst.spec()}")
    dst.load_state_dict(src.state_dict())
    dst.mode = src.mode


def fingerprint(net: Network) -> str:
    """Digest of all parameter and buffer values; changes iff they do."""
    h = hashlib.sha256()
    for name, arr in sorted(net.state_dict().items()):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout: magic "BJPA" | version u32 | tensor count u32, then per tensor:
# name length u32 | UTF-8 name | rank u32 | dims u32[rank] | f64 values.
# All integers and floats little-endian.

_MAGIC = b"BJPA"
_VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise CheckpointError(f"truncated checkpoint: expected {what} at byte {offset}")
        chunk = raw[offset:offset + n]
        offset += n
        return chunk

    offset = 0
    if take(4, "magic") != _MAGIC:
        raise CheckpointError(f"bad magic in {path}: not a checkpoint file")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
        n = int(np.prod(dims)) if rank else 1
        values = np.frombuffer(take(8 * n, f"values of {name}"), dtype="<f8")
        tensors[name] = values.reshape(dims).astype(np.float64)
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes after last tensor")
    return tensors
