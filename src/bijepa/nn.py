"""Layer specifications, network builders, initialization, and state copies.

A Network is an ordered list of layers applied in sequence. Three builders
cover every architecture used by the experiments: a two-hidden-layer MLP
encoder, a one-hidden-layer predictor, and the fixed conv encoder for
half-image inputs.
"""

from __future__ import annotations

from copy import deepcopy

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class SpecMismatchError(ValueError):
    """Two networks whose layer specs disagree."""


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
    def __init__(self, dim: int):
        self.dim = dim
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
        return ad.layer_norm(x, self.gamma, self.beta)


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
        return ad.conv2d(x, self.k, self.b)


class BatchNorm2d(Layer):
    """Owns its running statistics: train-mode forwards write into the
    same two arrays, which are never rebound. A ``Network.copy`` gets
    arrays of its own."""

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def spec(self):
        return ("BatchNorm2d", self.channels)

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def init(self, rng) -> None:
        self.gamma.values[...] = 1.0
        self.beta.values[...] = 0.0
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                               self.running_var, training)


class Flatten(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.flatten(x)


class Network:
    """Ordered layer stack with an explicit train/eval mode.

    The network owns its parameters' storage: construction copies every
    parameter into one contiguous float64 buffer, ``flat``, and makes
    each tensor's ``values`` a view of it, in ``parameters()`` order.
    That view is never rebound afterwards; whatever writes parameters
    (AdamW, the EMA) writes into it.
    A parameter that already views another array, because its layer is
    in another network or listed twice, is refused, not repacked.

    The layer list is fixed at construction, so its spec is computed once.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self._spec = tuple(layer.spec() for layer in self.layers)
        self.mode = "train"
        params = self.parameters()
        self.flat = np.empty(sum(p.size for p in params))
        offset = 0
        for p in params:
            if p.values.base is not None:
                raise ValueError(
                    f"parameter of shape {p.shape} already views another array "
                    "(is its layer in another network, or listed twice?)")
            view = self.flat[offset:offset + p.size].reshape(p.shape)
            view[...] = p.values
            p.values = view
            offset += p.size

    def copy(self) -> "Network":
        """An independent network with the same layers, values, buffers
        and mode. Its parameters are fresh arrays packed into its own
        ``flat``; gradient slots are copied as they are."""
        net = Network(deepcopy(self.layers))
        net.mode = self.mode
        return net

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
        return self._spec

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, t in layer.params():
                out.append((f"{i}.{name}", t))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


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

