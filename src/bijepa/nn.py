"""Layers, network builders and state copies.

A Network is an ordered list of layers applied in sequence. Two builders
cover every architecture used by the experiments: ``build_mlp`` makes
every MLP (the encoders, the predictors and the probes), and
``build_conv_encoder`` the conv encoder for half-image inputs.

Layers are drawn when they are built. ``Linear`` and ``Conv2d`` weights
are Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from the generator they
are given; biases start at zero, norm gammas at one and betas at zero.
A builder takes a seed and hands one generator to its layers in layer
order, so a network is a deterministic function of its seed.
"""

from __future__ import annotations

from copy import deepcopy

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class SpecMismatchError(ValueError):
    """Two networks whose layer specs disagree."""


class Layer:
    """Base layer: parameters, buffers and a forward. The defaults
    describe a layer without state."""

    def params(self):
        return []

    def buffers(self):
        return []


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"Linear dims must be >= 1, got ({in_dim}, {out_dim})")
        bound = 1.0 / np.sqrt(in_dim)
        self.w = Tensor(rng.uniform(-bound, bound, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def params(self):
        return [self.w, self.b]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Layer):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class ReLU(Layer):
    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.relu(x)


class Conv2d(Layer):
    """3x3 kernel, stride 2, zero-padding 1 (the only configuration used)."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_ch * 9)
        self.k = Tensor(rng.uniform(-bound, bound, (out_ch, in_ch, 3, 3)), requires_grad=True)
        self.b = Tensor(np.zeros(out_ch), requires_grad=True)

    def params(self):
        return [self.k, self.b]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ad.conv2d(x, self.k, self.b)


class BatchNorm2d(Layer):
    """Owns its running statistics: train-mode forwards write into the
    same two arrays, which are never rebound. A ``Network.copy`` gets
    arrays of its own."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [self.running_mean, self.running_var]

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

    The layer list is fixed at construction, so its spec, each layer's
    type name followed by its parameters' shapes, is computed once.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self._spec = tuple((type(layer).__name__, *(p.shape for p in layer.params()))
                           for layer in self.layers)
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

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]


# ---------------------------------------------------------------------------
# builders


def build_mlp(widths: tuple[int, ...], with_ln: bool, seed: int) -> Network:
    """A ``Linear`` between each pair of consecutive ``widths``; every one
    but the last is followed by a ``LayerNorm`` (if ``with_ln``) and a
    ``ReLU``. The weights are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    layers: list = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        if layers:
            if with_ln:
                layers.append(LayerNorm(fan_in))
            layers.append(ReLU())
        layers.append(Linear(fan_in, fan_out, rng))
    return Network(layers)


def build_conv_encoder(emb_dim: int, seed: int) -> Network:
    """Half-image encoder: (B,1,28,14) -> (B,emb_dim), drawn from ``seed``.

    Two stride-2 convs take 28x14 to 7x4, so the flatten width is
    64*7*4 = 1792.
    """
    rng = np.random.default_rng(seed)
    return Network([
        Conv2d(1, 32, rng),
        BatchNorm2d(32),
        ReLU(),
        Conv2d(32, 64, rng),
        BatchNorm2d(64),
        ReLU(),
        Flatten(),
        Linear(1792, 128, rng),
        LayerNorm(128),
        ReLU(),
        Linear(128, emb_dim, rng),
    ])
