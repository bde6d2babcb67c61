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
        self.flat = _pack(self.params, "AdamW")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        n = self.flat.size
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._grad = np.empty(n)
        self._tmp = np.empty(n)
        self._update = np.empty(n)
        self._finite = np.empty(n, dtype=bool)
        self._grad_views = _views(self._grad, self.params)
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


def _views(buf: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    """Views of ``buf`` shaped like ``params``, back to back."""
    views, offset = [], 0
    for p in params:
        views.append(buf[offset:offset + p.size].reshape(p.shape))
        offset += p.size
    return views


def _pack(params: list[Tensor], owner: str) -> np.ndarray:
    """Copy ``params`` into one new contiguous float64 buffer and rebind
    each tensor's ``values`` to its view of it; returns the buffer.

    A parameter whose ``values`` already views another array is refused,
    not repacked: rebinding it would silently cut that link.
    """
    for p in params:
        if p.values.base is not None:
            raise ValueError(
                f"parameter of shape {p.shape} views another array (registered "
                f"with another optimizer?); {owner} must own its storage")
    flat = np.empty(sum(p.size for p in params))
    for p, view in zip(params, _views(flat, params)):
        view[...] = p.values
        p.values = view
    return flat


def _runs(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """1-D views that cover ``arrays`` in order: one per run of arrays
    lying back to back in one flat buffer (such as ``AdamW.flat``), else
    one per array. No data is copied or moved."""
    runs = []  # [buffer, start, stop], in elements
    for a in arrays:
        buf, start = a.base, 0
        if buf is not None and buf.ndim == 1 and buf.dtype == a.dtype and buf.flags.c_contiguous:
            start = (a.__array_interface__["data"][0]
                     - buf.__array_interface__["data"][0]) // a.itemsize
        else:
            buf = a.reshape(-1)
        if runs and runs[-1][0] is buf and runs[-1][2] == start:
            runs[-1][2] += a.size
        else:
            runs.append([buf, start, start + a.size])
    return [buf[start:stop] for buf, start, stop in runs]


class _EmaPlan:
    """What ``ema_update`` resolves once per (target, online) pair.

    The target's parameters live in one arena; ``spans`` pairs each
    contiguous run of the online parameters' storage with the aligned
    slice of the arena and of a scratch buffer. The plan is reused while
    the pair and every tensor's storage stay the same.
    """

    def __init__(self, target: Network, online: Network, arena: np.ndarray | None):
        if target.spec() != online.spec():
            raise SpecMismatchError("ema_update needs identical network specs")
        t_params, o_params = target.parameters(), online.parameters()
        if arena is None or any(p.values.base is not arena for p in t_params):
            arena = _pack(t_params, "the EMA target")
        self.arena = arena
        self.online = weakref.ref(online)
        self.bound = [(p, p.values) for p in t_params + o_params]
        scratch = np.empty(arena.size)
        self.spans, offset = [], 0
        for run in _runs([p.values for p in o_params]):
            end = offset + run.size
            self.spans.append((arena[offset:end], run, scratch[offset:end]))
            offset = end

    def current(self, online: Network) -> bool:
        return self.online() is online and all(p.values is v for p, v in self.bound)


# One plan per target network, kept for as long as the target lives.
_EMA_PLANS: "weakref.WeakKeyDictionary[Network, _EmaPlan]" = weakref.WeakKeyDictionary()


def ema_update(target: Network, online: Network, cfg: EmaConfig) -> None:
    """p̄ ← τ·p̄ + (1−τ)·p for every parameter pair.

    The first call for a pair checks the specs and moves the target's
    parameters into one contiguous arena (the online network's storage
    is never moved). Each call then runs ``p̄ *= τ; p̄ += (1−τ)·p`` over
    whole contiguous spans, one span when the online parameters are
    registered with one ``AdamW``. That rounds exactly like
    ``tau * p_t + (1.0 - tau) * p_o`` and allocates nothing.
    """
    plan = _EMA_PLANS.get(target)
    if plan is None or not plan.current(online):
        plan = _EMA_PLANS[target] = _EmaPlan(target, online,
                                             None if plan is None else plan.arena)
    tau = cfg.tau
    for p_t, p_o, tmp in plan.spans:
        np.multiply(p_o, 1.0 - tau, out=tmp)
        p_t *= tau
        p_t += tmp
