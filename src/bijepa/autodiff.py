"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: every primitive whose inputs require gradients records one
node; ``backward`` collects the nodes reachable from a scalar loss, replays
them in reverse execution order, and accumulates gradients into the
``grad`` slot of every tensor that requires them. Graphs are single-use
and are rebuilt on every forward pass.

A graph holds no reference cycle: a tensor owns the node that made it,
a node owns its inputs and its vjp, and refers to its output only
weakly. So reference counting frees a graph as soon as nothing reaches
it, whether or not it was ever differentiated (target passes, probe
features, eval forwards). A vjp returns ``None`` for an input that
needs no gradient; whether it does is fixed when the node is recorded.

The primitive set is exactly what the encoder/predictor architectures and
probes need: dense linear maps, ReLU, layer/batch normalization, strided
3x3 convolution, the two losses, and a handful of glue ops.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphConsumedError(RuntimeError):
    """backward() called again on an already-consumed graph."""


class DegenerateEmbeddingError(ValueError):
    """Sphere projection of a row with (near-)zero norm."""


_SEQ = itertools.count()


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient slot.

    ``values`` is always a C-contiguous float64 array. ``grad`` stays
    ``None`` until a backward pass deposits a gradient; it then has the
    same shape as ``values``. Tensors produced by primitives carry the
    ``node`` that created them; leaves have ``node is None``.
    """

    __slots__ = ("values", "grad", "requires_grad", "node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One executed primitive: its inputs, its output, and its vjp.

    The output is held weakly (it holds the node), so that a graph is
    acyclic; ``output`` is ``None`` once nothing else holds the tensor.
    """

    __slots__ = ("op", "inputs", "_output", "vjp", "seq", "consumed")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.vjp = vjp
        self.seq = next(_SEQ)
        self.consumed = False

    @property
    def output(self) -> Tensor | None:
        return self._output()


def trace(root: Tensor) -> list[Node]:
    """Every node reachable from ``root``, in execution order (a valid
    topological order under define-by-run)."""
    seen: set[int] = set()
    nodes: list[Node] = []
    stack = [root.node] if root.node is not None else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for t in node.inputs:
            if t.node is not None and id(t.node) not in seen:
                stack.append(t.node)
    nodes.sort(key=lambda n: n.seq)
    return nodes


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad tensor.

    ``loss`` must be a scalar. Each graph supports exactly one backward
    pass. Every node's inputs and vjp (with the forward context it saved)
    are released as the pass reaches it, so only the root node stays
    reachable from ``loss``, to reject a second pass.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            _deposit(loss, np.ones_like(loss.values))
        return
    nodes = trace(loss)
    if any(n.consumed for n in nodes):
        raise GraphConsumedError("graph already consumed by a previous backward pass")

    # keyed by tensor (identity hash); holding the key keeps it alive
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
    for node in reversed(nodes):
        out_grad = grads.pop(node.output, None)
        node.consumed = True
        if out_grad is not None:
            for t, g in zip(node.inputs, node.vjp(out_grad)):
                if g is None or not _needs_grad(t):
                    continue
                prev = grads.get(t)
                grads[t] = g if prev is None else prev + g
        node.vjp = None
        node.inputs = ()
    for t, g in grads.items():
        if t.requires_grad:
            _deposit(t, g)
    if loss.requires_grad:
        _deposit(loss, np.ones_like(loss.values))


def _deposit(t: Tensor, g: np.ndarray) -> None:
    t.grad = g.copy() if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _make(op: str, inputs: tuple[Tensor, ...], values: np.ndarray, vjp) -> Tensor:
    out = Tensor(values, requires_grad=any(_needs_grad(t) for t in inputs))
    if out.requires_grad:
        out.node = Node(op, inputs, out, vjp)
    return out


# ---------------------------------------------------------------------------
# glue primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _make("add", (a, b), a.values + b.values, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    av, bv = a.values, b.values
    return _make("mul", (a, b), av * bv, lambda g: (g * bv, g * av))


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    return _make("scale", (x,), x.values * c, lambda g: (g * c,))


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape
    return _make("sum_all", (x,), np.asarray(x.values.sum()),
                 lambda g: (np.full(shape, g.reshape(-1)[0]),))


def flatten(x: Tensor) -> Tensor:
    """Collapse all trailing axes: (B, ...) -> (B, prod(...))."""
    x = _as_tensor(x)
    shape = x.shape
    if len(shape) < 2:
        raise ShapeError(f"flatten needs at least 2 axes, got shape {shape}")
    flat = x.values.reshape(shape[0], -1)
    return _make("flatten", (x,), flat, lambda g: (g.reshape(shape),))


def stop_gradient(x: Tensor) -> Tensor:
    """Value-identical tensor that terminates backward traversal."""
    x = _as_tensor(x)
    return Tensor(x.values.copy(), requires_grad=False)


# ---------------------------------------------------------------------------
# network primitives


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y[i,o] = sum_k x[i,k] w[k,o] + b[o]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1:
        raise ShapeError(
            f"linear expects x:(B,I) w:(I,O) b:(O,), got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"linear: inner dims disagree for x {x.shape}, w {w.shape}, b {b.shape}")
    xv, wv = x.values, w.values
    y = xv @ wv + b.values
    need_x = _needs_grad(x)

    def vjp(g):
        return (g @ wv.T if need_x else None), xv.T @ g, g.sum(axis=0)

    return _make("linear", (x, w, b), y, vjp)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.values > 0.0
    return _make("relu", (x,), np.where(mask, x.values, 0.0), lambda g: (g * mask,))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit biased variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm expects (B,D), got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must be ({d},)")
    xv = x.values
    mu = xv.mean(axis=1, keepdims=True)
    var = xv.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv_std
    y = gamma.values * xhat + beta.values
    gv = gamma.values

    def vjp(g):
        dxhat = g * gv
        dx = (inv_std / d) * (
            d * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _make("layer_norm", (x, gamma, beta), y, vjp)


@dataclass
class RunningStats:
    """Per-channel running mean/variance for batch norm in eval mode."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1

    @classmethod
    def for_channels(cls, c: int, momentum: float = 0.1) -> "RunningStats":
        return cls(np.zeros(c), np.ones(c), momentum)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
                 training: bool, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over (B,H,W) with biased variance.

    Train mode normalizes with batch statistics and folds them into
    ``stats``; eval mode normalizes with the running statistics.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.values.ndim != 4:
        raise ShapeError(f"batch_norm2d expects (B,C,H,W), got {x.shape}")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm2d: gamma/beta must be ({c},)")
    xv = x.values
    gv = gamma.values

    if training:
        if b < 2:
            raise ShapeError("batch_norm2d train mode needs batch size >= 2")
        mu = xv.mean(axis=(0, 2, 3))
        var = xv.var(axis=(0, 2, 3))
        m = stats.momentum
        stats.mean = (1.0 - m) * stats.mean + m * mu
        stats.var = (1.0 - m) * stats.var + m * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (xv - mu[None, :, None, None]) * inv_std[None, :, None, None]
        y = gv[None, :, None, None] * xhat + beta.values[None, :, None, None]
        n = b * h * w

        def vjp(g):
            dxhat = g * gv[None, :, None, None]
            s1 = dxhat.sum(axis=(0, 2, 3))
            s2 = (dxhat * xhat).sum(axis=(0, 2, 3))
            dx = (inv_std[None, :, None, None] / n) * (
                n * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None]
            )
            return dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

        return _make("batch_norm2d", (x, gamma, beta), y, vjp)

    inv_std = 1.0 / np.sqrt(stats.var + eps)
    xhat = (xv - stats.mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = gv[None, :, None, None] * xhat + beta.values[None, :, None, None]

    def vjp_eval(g):
        dx = g * (gv * inv_std)[None, :, None, None]
        return dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return _make("batch_norm2d", (x, gamma, beta), y, vjp_eval)


def conv2d(x: Tensor, k: Tensor, b: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """Strided 3x3 cross-correlation with zero padding.

    Output spatial dims: H' = floor((H + 2*pad - 3)/stride) + 1, same for W.
    """
    x, k, b = _as_tensor(x), _as_tensor(k), _as_tensor(b)
    if x.values.ndim != 4:
        raise ShapeError(f"conv2d expects (B,Cin,H,W) input, got {x.shape}")
    if k.values.ndim != 4 or k.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d expects (Cout,Cin,3,3) kernel, got {k.shape}")
    bs, cin, h, w = x.shape
    cout = k.shape[0]
    if k.shape[1] != cin:
        raise ShapeError(f"conv2d: kernel expects {k.shape[1]} input channels, got {cin}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias must be ({cout},)")

    xp = np.pad(x.values, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    # im2col: one matmul carries the whole batch
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bs * ho * wo, cin * 9)
    wmat = k.values.reshape(cout, cin * 9).T
    y = (cols @ wmat + b.values).reshape(bs, ho, wo, cout).transpose(0, 3, 1, 2)

    hp, wp = xp.shape[2], xp.shape[3]
    need_x = _needs_grad(x)

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bs * ho * wo, cout)
        gw = (cols.T @ g2).T.reshape(cout, cin, 3, 3)
        gb = g2.sum(axis=0)
        if not need_x:
            return None, gw, gb
        gwin = (g2 @ wmat.T).reshape(bs, ho, wo, cin, 3, 3).transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros((bs, cin, hp, wp))
        for kh in range(3):
            for kw in range(3):
                gxp[:, :, kh:kh + stride * ho:stride,
                    kw:kw + stride * wo:stride] += gwin[:, :, :, :, kh, kw]
        gx = gxp[:, :, pad:pad + h, pad:pad + w]
        return gx, gw, gb

    return _make("conv2d", (x, k, b), np.ascontiguousarray(y), vjp)


# ---------------------------------------------------------------------------
# losses


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over every element of the squared difference."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.values - target.values
    n = diff.size
    loss = np.asarray((diff * diff).sum() / n)
    need_target = _needs_grad(target)

    def vjp(g):
        s = g.reshape(-1)[0] * 2.0 / n
        return s * diff, (-s * diff if need_target else None)

    return _make("mse_loss", (pred, target), loss, vjp)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, max-stabilized."""
    logits = _as_tensor(logits)
    if logits.values.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (B,K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    bsz, k = logits.shape
    if labels.shape != (bsz,):
        raise ShapeError(f"labels must be ({bsz},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    rows = np.arange(bsz)
    log_probs = z - np.log(expz.sum(axis=1, keepdims=True))
    loss = np.asarray(-log_probs[rows, labels].mean())

    def vjp(g):
        d = probs.copy()
        d[rows, labels] -= 1.0
        return (g.reshape(-1)[0] / bsz * d,)

    return _make("softmax_cross_entropy", (logits,), loss, vjp)


def sphere_project(s: Tensor) -> Tensor:
    """Divide each row by its L2 norm, differentiably.

    Rejects rows whose norm falls below 1e-12: a collapsed embedding has
    no direction to keep.
    """
    s = _as_tensor(s)
    if s.values.ndim != 2:
        raise ShapeError(f"sphere_project expects (B,D), got {s.shape}")
    norms = np.linalg.norm(s.values, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise DegenerateEmbeddingError(
            f"degenerate embedding: row norm {norms.min():.3e} below 1e-12")
    y = s.values / norms

    def vjp(g):
        return ((g - y * (g * y).sum(axis=1, keepdims=True)) / norms,)

    return _make("sphere_project", (s,), y, vjp)
