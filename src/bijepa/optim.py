"""AdamW with decoupled weight decay, plus the EMA target-network update."""

from __future__ import annotations

import functools

import numpy as np

from .nn import Network, SpecMismatchError

# Adam's moment decay rates and the denominator's guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over the parameters of explicit networks.

    Only the listed networks are ever touched; the target encoder is
    never listed, which is the structural half of the stop-gradient
    guarantee. A NaN/Inf gradient aborts the step instead of corrupting
    parameters.

    Each network owns its parameters' storage (``Network.flat``), and the
    optimizer updates those buffers in place. ``m``, ``v``, the gathered
    gradient and one scratch buffer are single flat buffers over all the
    networks, so a step is a fixed sequence of in-place whole-buffer
    operations, plus the weight-decay product and the final subtraction
    once per network, and allocates nothing. Once both moments have read
    the gradient, the update is built in the gradient buffer itself.
    """

    def __init__(self, nets: list[Network], lr: float, weight_decay: float):
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        nets = list(nets)
        if len({id(net) for net in nets}) != len(nets):
            raise ValueError("a network is listed more than once")
        self.params = [p for net in nets for p in net.parameters()]
        self.lr = lr
        self.weight_decay = weight_decay
        n = sum(net.flat.size for net in nets)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._grad = np.empty(n)
        self._tmp = np.empty(n)
        self._finite = np.empty(n, dtype=bool)
        # per parameter, its gradient's slot in the gathered gradient; per
        # network, its storage and its slices of the scratch and gradient
        # buffers (the latter holds the update by the end of a step)
        self._grad_views, self._spans, offset = [], [], 0
        for net in nets:
            end = offset + net.flat.size
            self._spans.append((net.flat, self._tmp[offset:end], self._grad[offset:end]))
            for p in net.parameters():
                self._grad_views.append(self._grad[offset:offset + p.size].reshape(p.shape))
                offset += p.size
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """Apply one update from the accumulated ``grad`` slots.

        Returns False if any gradient is non-finite; parameters, moments
        and the step count are left untouched in that case. A missing
        gradient counts as zero.
        """
        for p, g in zip(self.params, self._grad_views):
            if p.grad is None:
                g.fill(0.0)
            else:
                g[...] = p.grad
        g = self._grad
        if not np.isfinite(g, out=self._finite).all():
            return False

        self.step_count += 1
        t = self.step_count
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        m, v, tmp = self.m, self.v, self._tmp
        # Each line is one elementwise operation of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        #   update = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p];  p -= lr*update
        # in that order, so the result is bit-equal to the per-tensor form.
        # g is last read by v's line, so the update overwrites it.
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        # from step 356 on, 1 - 0.9**t rounds to 1.0 and m/bc1 is m
        if bc1 == 1.0:
            update = np.divide(m, tmp, out=g)
        else:
            update = np.divide(m, bc1, out=g)
            update /= tmp
        if self.weight_decay != 0.0:
            for flat, tmp_span, _ in self._spans:
                np.multiply(flat, self.weight_decay, out=tmp_span)
            update += tmp
        update *= self.lr
        for flat, _, update_span in self._spans:
            flat -= update_span
        return True


@functools.lru_cache(maxsize=8)
def _ema_scratch(size: int) -> np.ndarray:
    """One scratch buffer per parameter count, reused by every EMA call.
    Each call overwrites it before reading it, so nothing carries over."""
    return np.empty(size)


def ema_update(target: Network, online: Network, tau: float) -> None:
    """p̄ ← τ·p̄ + (1−τ)·p for every parameter pair.

    Three whole-buffer ufuncs on the two networks' ``flat`` storage,
    ``p̄ *= τ; p̄ += (1−τ)·p``, which round exactly like
    ``tau * p_t + (1.0 - tau) * p_o`` and allocate nothing.
    """
    if target.spec() != online.spec():
        raise SpecMismatchError("ema_update needs identical network specs")
    tmp = _ema_scratch(online.flat.size)
    np.multiply(online.flat, 1.0 - tau, out=tmp)
    target.flat *= tau
    target.flat += tmp
