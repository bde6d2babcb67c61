"""AdamW with decoupled weight decay, plus the EMA target-network update."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .nn import Network, SpecMismatchError


@dataclass
class EmaConfig:
    """Momentum coefficient for the target-network update."""

    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0,1], got {self.tau}")


class AdamW:
    """Decoupled-weight-decay Adam over an explicit parameter list.

    Only registered parameters are ever touched; the target encoder is
    never registered, which is the structural half of the stop-gradient
    guarantee. A NaN/Inf gradient aborts the step and raises the
    ``diverged`` flag instead of corrupting parameters.

    The optimizer owns its parameters' storage: registration copies every
    parameter into one contiguous float64 buffer, ``flat``, and rebinds
    each tensor's ``values`` to a view of it. ``m``, ``v``, the gathered
    gradient and the scratch space are flat buffers of the same length,
    so a step is a fixed sequence of in-place whole-buffer operations and
    allocates nothing. Code that writes parameters must therefore write
    into ``values`` (``values[...] = ...``), never rebind it. A parameter
    whose ``values`` already views another array, such as one registered
    with another optimizer, is rejected: rebinding it would silently cut
    that link.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed more than once")
        for p in self.params:
            if p.values.base is not None:
                raise ValueError(
                    f"parameter of shape {p.shape} views another array (registered "
                    "with another optimizer?); AdamW must own its storage")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        n = sum(p.size for p in self.params)
        self.flat = np.empty(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._grad = np.empty(n)
        self._tmp = np.empty(n)
        self._update = np.empty(n)
        self._finite = np.empty(n, dtype=bool)
        self._grad_views = []
        offset = 0
        for p in self.params:
            end = offset + p.size
            view = self.flat[offset:end].reshape(p.shape)
            view[...] = p.values
            p.values = view
            self._grad_views.append(self._grad[offset:end].reshape(p.shape))
            offset = end
        self.step_count = 0
        self.diverged = False

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """Apply one update from the accumulated ``grad`` slots.

        Returns False (and raises the diverged flag) if any gradient is
        non-finite; parameters, moments and the step count are left
        untouched in that case. A missing gradient counts as zero.
        """
        for p, g in zip(self.params, self._grad_views):
            if p.grad is None:
                g.fill(0.0)
            else:
                g[...] = p.grad
        g = self._grad
        if not np.isfinite(g, out=self._finite).all():
            self.diverged = True
            return False

        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        m, v, tmp, update = self.m, self.v, self._tmp, self._update
        # Each line is one elementwise operation of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        #   update = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p];  p -= lr*update
        # in that order, so the result is bit-equal to the per-tensor form.
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        if self.weight_decay != 0.0:
            np.multiply(self.flat, self.weight_decay, out=tmp)
            update += tmp
        update *= self.lr
        self.flat -= update
        return True


# Scratch arrays for ema_update, one per target parameter, kept for as
# long as the target network lives. Contents never outlive one call.
_EMA_SCRATCH: "weakref.WeakKeyDictionary[Network, list[np.ndarray]]" = \
    weakref.WeakKeyDictionary()


def ema_update(target: Network, online: Network, cfg: EmaConfig) -> None:
    """p̄ ← τ·p̄ + (1−τ)·p for every parameter pair.

    Computed in place as ``p̄ *= τ; p̄ += (1−τ)·p``, which rounds exactly
    like ``tau * p_t + (1.0 - tau) * p_o``, and allocates nothing after
    the first call for a given target.
    """
    if target.spec() != online.spec():
        raise SpecMismatchError("ema_update needs identical network specs")
    tau = cfg.tau
    params = target.parameters()
    scratch = _EMA_SCRATCH.get(target)
    if scratch is None:
        scratch = _EMA_SCRATCH[target] = [np.empty(p.shape) for p in params]
    for p_t, p_o, tmp in zip(params, online.parameters(), scratch):
        np.multiply(p_o.values, 1.0 - tau, out=tmp)
        p_t.values *= tau
        p_t.values += tmp
